"""How often an unpaced daemon hands control to its event loop, and
when it releases the GIL.

An unpaced replay hands off after each millisecond of stepping, not
after every tick; while a control-plane connection is open it hands off
after every tick, so the request gets its event-loop steps as often as
it did.  While other Python threads share the process it also releases
the GIL after every tick, by ``os.sched_yield``, not by a handoff.  The
single-thread cases run the daemon in a fresh interpreter, where no
other thread is about.
"""

import asyncio
import http.client
import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.core import AutoscalingRuntime, ScalingPlan
from repro.core.plan import required_nodes
from repro.service import GeneratorSource, ServiceRuntime

REPO = Path(__file__).resolve().parents[2]


class ConstantPlanner:
    name = "constant"

    def plan(self, context, start_index=0):
        return ScalingPlan(
            nodes=required_nodes(np.full(4, float(context[-1])), 60.0),
            threshold=60.0,
            strategy=self.name,
        )


def new_service(source, **options):
    runtime = AutoscalingRuntime(
        planner=ConstantPlanner(), context_length=6, horizon=4, threshold=60.0
    )
    return ServiceRuntime(runtime, source, **options)


class CountingSource:
    """Unpaced ticks that count the step loop's resumptions between the
    first tick and after the last, and note the time at both ends.

    A task that only ever yields advances once per event-loop pass, and
    never while a step runs; a tick handed out after it advanced is the
    first tick after a handoff, however many passes that handoff took.
    """

    def __init__(self, ticks):
        self.source = GeneratorSource(np.full(ticks, 300.0))
        self.passes = 0
        self.resumes = 0
        self.first = self.last = None

    @property
    def position(self):
        return self.source.position

    def seek(self, position):
        self.source.seek(position)

    async def count_passes(self):
        while True:
            await asyncio.sleep(0)
            self.passes += 1

    async def ticks(self):
        async for value in self.source.ticks():
            if self.first is None:
                self.first = time.perf_counter()
            else:
                self.resumes += self.passes != seen
            seen = self.passes
            yield value
        self.resumes += self.passes != seen
        self.last = time.perf_counter()


class HoldingSource(CountingSource):
    """A :class:`CountingSource` that, before its first tick, opens a
    control-plane connection and sends nothing on it, so the connection
    stays open for the whole replay (the read timer is seconds away).

    It waits out the daemon's first handoff budget before the first tick,
    so every tick it counts ran with the connection open.
    """

    service = None

    async def ticks(self):
        control = self.service.control
        _, writer = await asyncio.open_connection("127.0.0.1", control.port)
        while not control.connections:
            await asyncio.sleep(0)
        await asyncio.sleep(0.005)
        try:
            async for value in super().ticks():
                yield value
        finally:
            writer.close()


class ConnectingSource(CountingSource):
    """A :class:`CountingSource` that, at tick :attr:`at`, connects to the
    control plane from inside the step, so the connection arrives in the
    middle of a stretch of stepping, and holds it open sending nothing.

    From then on it notes, at each tick, the passes made so far and the
    connections the control plane counts.
    """

    service = None
    at = 100

    def __init__(self, ticks):
        super().__init__(ticks)
        self.after = []

    async def ticks(self):
        client = None
        try:
            async for value in super().ticks():
                if client is not None:
                    self.after.append((self.passes, self.service.control.connections))
                elif self.position == self.at:
                    client = socket.create_connection(("127.0.0.1", self.service.port))
                    # Wait until the kernel has queued it for accept, so the
                    # daemon's next poll finds it.
                    listener = self.service.control._server.sockets[0]
                    select.select([listener], [], [], 5.0)
                    self.after.append((self.passes, self.service.control.connections))
                yield value
        finally:
            if client is not None:
                client.close()


def count_handoffs(ticks, source_type=CountingSource):
    """Serve ``ticks`` unpaced ticks in this thread: the handoffs between
    the first tick and the last, the milliseconds between them, how many
    Python threads the process had, and how often the step loop called
    ``os.sched_yield``."""
    source = source_type(ticks)
    service = source.service = new_service(source)

    async def main():
        counter = asyncio.ensure_future(source.count_passes())
        try:
            await service.run()
        finally:
            counter.cancel()

    threads = threading.active_count()
    with mock.patch.object(os, "sched_yield", wraps=os.sched_yield) as yields:
        asyncio.run(main())
    assert service.ticks_processed == ticks
    return {
        "handoffs": source.resumes,
        "elapsed_ms": (source.last - source.first) * 1e3,
        "threads": threads,
        "yields": yields.call_count,
        "after_connect": getattr(source, "after", None),
    }


def count_handoffs_holding_a_connection(ticks):
    return count_handoffs(ticks, HoldingSource)


def count_handoffs_connecting_mid_stretch(ticks):
    return count_handoffs(ticks, ConnectingSource)


def serve_printing_port(ticks):
    """Serve ``ticks`` unpaced ticks; print the control-plane port once bound."""
    service = new_service(GeneratorSource(np.full(ticks, 300.0)))

    async def main():
        task = asyncio.ensure_future(service.run())
        while service.port is None:
            await asyncio.sleep(0.001)
        print(service.port, flush=True)
        await task

    asyncio.run(main())


def child(function, ticks):
    """``python -c`` arguments that call this module's ``function(ticks)``
    in a fresh interpreter and print what it returns as JSON."""
    return [
        sys.executable, "-c",
        f"import json, sys\nsys.path[:0] = [{str(REPO)!r}, {str(REPO / 'src')!r}]\n"
        f"from tests.service.test_handoff import {function}\n"
        f"print(json.dumps({function}({ticks})))\n",
    ]


def test_an_unpaced_replay_hands_off_once_per_millisecond_not_per_tick():
    result = subprocess.run(
        child("count_handoffs", 20_000),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counted = json.loads(result.stdout)
    assert counted["threads"] == 1
    assert 1 <= counted["handoffs"] <= counted["elapsed_ms"] + 2, counted


def test_beside_another_python_thread_it_yields_the_gil_after_every_tick():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        counted = count_handoffs(2_000)
    finally:
        release.set()
        other.join()
    assert counted["threads"] > 1
    assert counted["handoffs"] <= counted["elapsed_ms"] + 2, counted
    assert counted["yields"] == 2_000, counted

    # Alone in its process, it never yields.
    result = subprocess.run(
        child("count_handoffs", 2_000),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    alone = json.loads(result.stdout)
    assert alone["threads"] == 1
    assert alone["yields"] == 0, alone


def test_with_a_connection_open_it_hands_off_after_every_tick():
    # Alone in its process, so only the open connection sets the rule.
    result = subprocess.run(
        child("count_handoffs_holding_a_connection", 2_000),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counted = json.loads(result.stdout)
    assert counted["threads"] == 1
    assert counted["handoffs"] >= 2_000 - 1, counted


def test_a_connection_accepted_mid_stretch_is_counted_at_the_next_resume():
    # The handoff that ends the stretch runs the accept its poll finds
    # and counts the connection before the step loop reads its budget:
    # the first resume after the connect already hands off per tick.
    result = subprocess.run(
        child("count_handoffs_connecting_mid_stretch", 2_000),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counted = json.loads(result.stdout)
    assert counted["threads"] == 1
    after = counted["after_connect"]
    connected_at = after[0][0]
    resumes = [i for i, (passes, _) in enumerate(after) if passes > connected_at]
    assert len(resumes) >= 2, counted
    first = resumes[0]
    assert after[first][1] == 1, after[: first + 1]
    # ... so the very next tick follows another handoff.
    assert after[first + 1][0] > after[first][0], after[: first + 2]


def test_a_paced_daemon_stops_during_its_tick_pause():
    interval = 0.05
    source = GeneratorSource(np.full(1_000, 300.0))
    service = new_service(source, tick_interval=interval, linger=5.0)
    requested = {}

    def stop_after_a_few_ticks():
        while service.ticks_processed < 3:
            time.sleep(0.005)
        requested["ticks"] = service.ticks_processed
        requested["at"] = time.perf_counter()
        service.request_stop()

    stopper = threading.Thread(target=stop_after_a_few_ticks)
    stopper.start()
    try:
        service.serve_forever()
    finally:
        returned = time.perf_counter()
        stopper.join()
    # Neither the rest of the pause, nor the linger, nor the next tick.
    assert returned - requested["at"] < 2 * interval, returned - requested["at"]
    assert service.status == "stopped"
    assert requested["ticks"] <= service.ticks_processed <= requested["ticks"] + 1
    assert service.ticks_processed == source.position


def test_health_is_answered_while_a_long_unpaced_replay_steps():
    ticks = 200_000
    process = subprocess.Popen(
        child("serve_printing_port", ticks),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = process.stdout.readline()
        assert line, "the daemon exited before it bound its port"
        port = int(line)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/health")
        health = json.loads(conn.getresponse().read())
        conn.close()
    finally:
        process.kill()
        _, stderr = process.communicate(timeout=10)
    assert health["status"] == "serving", stderr
    assert 0 < health["tick"] < ticks
