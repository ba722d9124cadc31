"""How often an unpaced daemon hands control to its event loop.

While the daemon is its process's only Python thread, an unpaced replay
hands off after each millisecond of stepping, not after every tick;
while other Python threads share the process, or a control-plane
connection is open, it hands off after every tick, so they get the GIL
and the request its event-loop steps as often as they did.  The
single-thread cases run the daemon in a fresh interpreter, where no
other thread is about.
"""

import asyncio
import http.client
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

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


def new_service(source):
    runtime = AutoscalingRuntime(
        planner=ConstantPlanner(), context_length=6, horizon=4, threshold=60.0
    )
    return ServiceRuntime(runtime, source)


class CountingSource:
    """Unpaced ticks that note, at the first and after the last, how many
    passes the event loop has made and the time.

    A task that only ever yields advances once each time the daemon hands
    control to the event loop; it never runs while a step does.
    """

    def __init__(self, ticks):
        self.source = GeneratorSource(np.full(ticks, 300.0))
        self.passes = 0
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
                self.first = (self.passes, time.perf_counter())
            yield value
        self.last = (self.passes, time.perf_counter())


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


def count_handoffs(ticks, hold_connection=False):
    """Serve ``ticks`` unpaced ticks in this thread: the handoffs between
    the first tick and the last, the milliseconds between them, and how
    many Python threads the process had."""
    source = (HoldingSource if hold_connection else CountingSource)(ticks)
    service = source.service = new_service(source)

    async def main():
        counter = asyncio.ensure_future(source.count_passes())
        try:
            await service.run()
        finally:
            counter.cancel()

    threads = threading.active_count()
    asyncio.run(main())
    assert service.ticks_processed == ticks
    return {
        "handoffs": source.last[0] - source.first[0],
        "elapsed_ms": (source.last[1] - source.first[1]) * 1e3,
        "threads": threads,
    }


def count_handoffs_holding_a_connection(ticks):
    return count_handoffs(ticks, hold_connection=True)


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


def test_beside_another_python_thread_it_hands_off_after_every_tick():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        counted = count_handoffs(2_000)
    finally:
        release.set()
        other.join()
    assert counted["handoffs"] >= 2_000 - 1, counted


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
