"""Open-loop HTTP probe for the daemon's control plane.

Requests are sent on a fixed schedule from one client thread over one
connection at a time.  Each request is timed from the moment it was
*due*, not from when it was sent, so a stall in the daemon is charged to
every request it delayed; how late the generator itself ran is reported
next to the latencies.

Only ``GET`` routes are probed.  ``POST /plan`` commits a plan at
whatever tick the request happens to land on, which would make the
allocations depend on the wall clock instead of on the seed.
"""

from __future__ import annotations

import bisect
import http.client
import json
import threading
import time
from dataclasses import dataclass

__all__ = [
    "ROUTES",
    "OpenLoopSchedule",
    "ProbeRecord",
    "HttpProbe",
    "count_bad_responses",
]

#: ``(slug, request target)`` in the order the probe cycles through them.
ROUTES = (
    ("forecast", "/forecast"),
    ("health", "/health"),
    ("metrics", "/metrics"),
    ("metrics_prometheus", "/metrics?format=prometheus"),
    ("decisions", "/decisions?limit=20"),
    ("series", "/series"),
)

#: Requests per second the probe offers.
RATE = 50.0

REQUEST_TIMEOUT_S = 10.0


class OpenLoopSchedule:
    """Due times at a fixed rate, independent of how long requests take."""

    def __init__(self, rate: float, clock=time.perf_counter, sleep=time.sleep) -> None:
        self.period = 1.0 / rate
        self.clock = clock
        self.sleep = sleep
        self.origin = clock()
        self.issued = 0

    def wait_next(self) -> tuple[float, float]:
        """Block until the next request is due; returns ``(due, sent)``.

        When the previous request overran its slot the next one is sent
        at once and ``sent - due`` is the generator's lateness.
        """
        due = self.origin + self.issued * self.period
        self.issued += 1
        now = self.clock()
        if now < due:
            self.sleep(due - now)
            now = self.clock()
        return due, now


@dataclass
class ProbeRecord:
    slug: str
    due: float
    sent: float
    done: float
    status: int  # 0 when the request raised (refused, reset, timed out)
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class HttpProbe(threading.Thread):
    """Client thread: cycle through :data:`ROUTES` until told to stop.

    ``on_done`` runs on this thread after the last response was read; the
    harness uses it to let the daemon shut its control plane down only
    once no request is in flight.
    """

    def __init__(self, on_done) -> None:
        super().__init__(name="e2e-http-probe", daemon=True)
        self.port = 0
        self.on_done = on_done
        self.records: list[ProbeRecord] = []
        self._finish = threading.Event()

    def start_on(self, port: int) -> None:
        """Start probing the control plane listening on ``port``."""
        self.port = port
        self.start()

    def finish(self) -> None:
        """Ask the probe to stop after the request in flight."""
        self._finish.set()

    def run(self) -> None:
        schedule = OpenLoopSchedule(RATE)
        try:
            while not self._finish.is_set():
                slug, target = ROUTES[schedule.issued % len(ROUTES)]
                due, sent = schedule.wait_next()
                if self._finish.is_set():
                    break
                status, body = self._get(target)
                self.records.append(
                    ProbeRecord(slug, due, sent, time.perf_counter(), status, body)
                )
        finally:
            self.on_done()

    def _get(self, target: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            connection.request("GET", target)
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            return 0, b""
        finally:
            connection.close()


def count_bad_responses(records: list[ProbeRecord], decisions: list) -> int:
    """Responses that were not 200, did not parse, or showed a wrong plan.

    ``/forecast`` must show the plan that was in force when the handler
    ran: its ``tick`` is the next interval to be served, so the plan is
    the newest one committed at an earlier tick.  Bodies are dropped once
    checked.
    """
    from repro.obs import parse_exposition

    committed = [d for d in decisions if d.source != "reactive-fallback"]
    committed_at = [d.time_index for d in committed]
    bad = 0
    for record in records:
        good = record.status == 200
        if good:
            try:
                if record.slug == "metrics_prometheus":
                    parse_exposition(record.body.decode("utf-8"))
                else:
                    payload = json.loads(record.body)
                    if record.slug == "forecast":
                        index = bisect.bisect_left(committed_at, payload["tick"]) - 1
                        good = index >= 0 and (
                            payload["nodes"] == committed[index].plan.nodes.tolist()
                        )
            except ValueError:
                good = False
        bad += not good
        record.body = b""
    return bad
