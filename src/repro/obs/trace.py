"""End-to-end trace records built from the registry's span stack.

The span machinery in :mod:`repro.obs.registry` aggregates durations
into histograms — great for "what does ``runtime.step/plan`` usually
cost", useless for "what happened at tick 3071".  A
:class:`TraceCollector` attached to a registry
(:meth:`~repro.obs.registry.MetricsRegistry.set_tracer`) promotes the
live span stack into real trace records: every tick becomes one trace
(``trace_id`` = tick), every ``registry.span(...)`` block inside it one
span in the trace's ``spans`` list.

A span is written in integers: ``{"name", "start_ns", "duration_ns"}``
(offset from the trace's start and length, in nanoseconds), plus
``"parent"`` — the index of its parent in the same list — when it has
one, ``"labels"`` when it has any and ``"status"`` only when it is not
``ok``.  Positions are the ids: a span's index in ``spans`` is how its
children name it.

Completed traces land in a bounded ring (newest win); whoever brackets
them writes them as ``kind="trace"`` records (the daemon adds its
tick's counters and gauges to the record);
:func:`render_trace_timeline` draws one trace as an indented
critical-path timeline for ``report --traces`` and the control plane's
``GET /traces``.

Tracing never feeds decisions: the collector only observes timing, so
attaching one cannot perturb the planner — the bit-determinism
contracts (repeated backtests, checkpoint/restore) hold with tracing
on.
"""

from __future__ import annotations

import time
from collections import deque

__all__ = ["TraceCollector", "render_trace_timeline"]


class TraceCollector:
    """Collects completed spans into per-trace records.

    Attach with ``registry.set_tracer(collector)``; the registry then
    calls :meth:`open_span` / :meth:`close_span` from its ``span()``
    context manager.  Bracket each unit of work (the daemon brackets
    every tick) with :meth:`begin` / :meth:`end`.

    Parameters
    ----------
    max_traces:
        Completed traces kept in the ring; older ones fall off.
    """

    def __init__(self, max_traces: int = 64) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.max_traces = max_traces
        self.finished: deque[dict] = deque(maxlen=max_traces)
        self._trace: dict | None = None
        self._spans: list[dict] = []  # the live trace's span list
        self._open: list[int] = []  # indices of the open spans, innermost last
        self._t0 = 0
        self.traces_started = 0
        self.traces_finished = 0

    # -- trace lifecycle -------------------------------------------------
    @property
    def active(self) -> bool:
        """True while a trace is open (spans are being collected)."""
        return self._trace is not None

    @property
    def trace_id(self):
        return self._trace["trace_id"] if self._trace else None

    def begin(self, trace_id) -> None:
        """Open a trace; an unfinished previous trace is ended as-is."""
        if self._trace is not None:
            self.end(status="ok")
        self._spans = []
        self._trace = {
            "trace_id": trace_id,
            "status": "ok",
            "duration_ns": 0,
            "spans": self._spans,
        }
        self._open = []
        self._t0 = time.perf_counter_ns()
        self.traces_started += 1

    def end(self, status: str = "ok") -> dict | None:
        """Close the trace, append it to the ring, and return it."""
        trace = self._trace
        if trace is None:
            return None
        elapsed = time.perf_counter_ns() - self._t0
        # A crashed block can leave spans open (the registry closes its
        # own, but a raised begin/end mismatch should not wedge us).
        for index in self._open:
            span = self._spans[index]
            span["duration_ns"] = elapsed - span["start_ns"]
            span["status"] = "error"
        self._open = []
        # An error recorded mid-trace (a failed span) sticks even when
        # the bracketing caller saw success.
        if trace["status"] != "error":
            trace["status"] = status
        trace["duration_ns"] = elapsed
        self._trace = None
        self.finished.append(trace)
        self.traces_finished += 1
        return trace

    # -- span hooks (called by MetricsRegistry.span) ---------------------
    def open_span(self, name: str, labels: dict) -> dict | None:
        """Record a span start; returns the live span dict (or None)."""
        if self._trace is None:
            return None
        span = {"name": name}
        if self._open:
            span["parent"] = self._open[-1]
        span["start_ns"] = time.perf_counter_ns() - self._t0
        span["duration_ns"] = 0
        if labels:
            span["labels"] = dict(labels)
        self._open.append(len(self._spans))
        self._spans.append(span)
        return span

    def close_span(self, span: dict, duration_ns: int, status: str) -> None:
        if span is None or self._trace is None:
            return
        span["duration_ns"] = duration_ns
        if status != "ok":
            span["status"] = status
            self._trace["status"] = "error"
        if self._open and self._spans[self._open[-1]] is span:
            self._open.pop()
        else:  # defensive: out-of-order close
            self._open = [i for i in self._open if self._spans[i] is not span]

    # -- inspection ------------------------------------------------------
    def traces(self, limit: int | None = None) -> list[dict]:
        """The newest ``limit`` finished traces, oldest first."""
        traces = list(self.finished)
        if limit is not None:
            traces = traces[-limit:]
        return traces


def _format_ns(nanoseconds: int) -> str:
    if nanoseconds >= 1_000_000_000:
        return f"{nanoseconds / 1e9:.2f}s"
    if nanoseconds >= 1_000_000:
        return f"{nanoseconds / 1e6:.1f}ms"
    return f"{nanoseconds / 1e3:.0f}us"


def render_trace_timeline(trace: dict, width: int = 80) -> str:
    """Draw one trace as an indented timeline with the critical path.

    Each span gets a line: marker (``*`` = on the critical path),
    indented name, a proportional ``#`` bar positioned on the trace's
    time axis, duration, and a trailing ``!`` for error spans.  Pure
    ASCII so it survives any terminal or CI log.
    """
    spans = trace.get("spans", [])
    total = trace.get("duration_ns", 0) or max(
        (s["start_ns"] + s["duration_ns"] for s in spans), default=0
    )
    header = (
        f"trace {trace.get('trace_id')} [{trace.get('status', '?')}] "
        f"{_format_ns(total)} - {len(spans)} spans"
    )
    if not spans:
        return header
    # Span indices throughout: a span's position is its id.
    children: list[list[int]] = [[] for _ in spans]
    roots: list[int] = []
    depth = [0] * len(spans)
    for index, span in enumerate(spans):
        parent = span.get("parent")
        if parent is not None and 0 <= parent < index:  # parents come first
            children[parent].append(index)
            depth[index] = depth[parent] + 1
        else:
            roots.append(index)
    start = [span["start_ns"] for span in spans].__getitem__
    duration = [span["duration_ns"] for span in spans].__getitem__

    # Critical path: from the longest root, repeatedly descend into the
    # longest child — the chain of spans that bounds the trace duration.
    critical: set[int] = set()
    node = max(roots, key=duration)  # span 0 is always a root
    while node is not None:
        critical.add(node)
        node = max(children[node], key=duration, default=None)

    name_width = min(
        max(2 * d + len(s["name"]) for d, s in zip(depth, spans)),
        max(width // 2, 20),
    )
    bar_width = max(width - name_width - 22, 10)
    lines = [header]

    def emit(index: int) -> None:
        span = spans[index]
        begin = int(round(bar_width * start(index) / total)) if total else 0
        length = int(round(bar_width * duration(index) / total)) if total else 0
        begin = min(begin, bar_width - 1)
        length = max(1, min(length, bar_width - begin))
        bar = ("." * begin + "#" * length).ljust(bar_width, ".")
        marker = "*" if index in critical else " "
        flag = " !" if span.get("status") == "error" else ""
        label = ("  " * depth[index] + span["name"])[:name_width].ljust(name_width)
        lines.append(f"{marker} {label} |{bar}| {_format_ns(duration(index)):>8}{flag}")
        for child in sorted(children[index], key=start):
            emit(child)

    for root in sorted(roots, key=start):
        emit(root)
    return "\n".join(lines)
