"""End-to-end trace records built from the registry's span stack.

The span machinery in :mod:`repro.obs.registry` aggregates durations
into histograms — great for "what does ``runtime.step/plan`` usually
cost", useless for "what happened at tick 3071".  A
:class:`TraceCollector` attached to a registry
(:meth:`~repro.obs.registry.MetricsRegistry.set_tracer`) promotes the
live span stack into real trace records: every tick becomes one trace
(``trace_id`` = tick), every ``registry.span(...)`` block inside it one
span with a ``span_id``, ``parent_id``, start offset, duration, and
``ok``/``error`` status.

Traces survive the :func:`~repro.parallel.parallel_map` process
boundary: the parent's ``(trace_id, parent span)`` context ships with
each chunk of items, the worker collects the chunk's spans under
deterministic ``w<chunk>.<n>`` span ids,
and :meth:`absorb` grafts them back into the parent's live trace during
the registry merge — so a ``backtest(n_jobs=2)`` timeline shows the
worker's ``predict`` spans under the same ``backtest`` root a serial
run would produce.

Completed traces land in a bounded ring (newest win) and are emitted as
``kind="trace"`` events to the registry's sinks;
:func:`render_trace_timeline` draws one trace as an indented
critical-path timeline for ``report --traces`` and the control plane's
``GET /traces``.

Tracing never feeds decisions: the collector only observes timing, so
attaching one cannot perturb the planner — the bit-determinism
contracts (``n_jobs=1 == n_jobs=N``, checkpoint/restore) hold with
tracing on.
"""

from __future__ import annotations

import time
from collections import deque

__all__ = ["TraceCollector", "render_trace_timeline"]


class TraceCollector:
    """Collects completed spans into per-trace records.

    Attach with ``registry.set_tracer(collector)``; the registry then
    calls :meth:`open_span` / :meth:`close_span` from its ``span()``
    context manager.  Bracket each unit of work (the runtime brackets
    every ``step()``) with :meth:`begin` / :meth:`end`.

    Parameters
    ----------
    max_traces:
        Completed traces kept in the ring; older ones fall off.
    id_prefix:
        Prefix for generated span ids — workers use ``"w<chunk>."`` so
        merged ids stay unique and depend only on the chunk layout,
        never on which worker ran which chunk.
    """

    def __init__(self, max_traces: int = 64, id_prefix: str = "") -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.max_traces = max_traces
        self.id_prefix = id_prefix
        self.finished: deque[dict] = deque(maxlen=max_traces)
        self._trace: dict | None = None
        self._open: list[dict] = []
        self._root_parent: str | None = None
        self._next_id = 0
        self._t0 = 0.0
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

    @property
    def current_span_id(self) -> str | None:
        """Id of the innermost open span (the parent for fanned-out work)."""
        return self._open[-1]["span_id"] if self._open else self._root_parent

    def begin(self, trace_id, parent_id: str | None = None) -> None:
        """Open a trace; an unfinished previous trace is ended as-is."""
        if self._trace is not None:
            self.end(status="ok")
        self._trace = {
            "trace_id": trace_id,
            "status": "ok",
            "duration_s": 0.0,
            "spans": [],
        }
        self._open = []
        self._root_parent = parent_id
        self._next_id = 0
        self._t0 = time.perf_counter()
        self.traces_started += 1

    def end(self, status: str = "ok") -> dict | None:
        """Close the trace, append it to the ring, and return it."""
        trace = self._trace
        if trace is None:
            return None
        now = time.perf_counter()
        # A crashed block can leave spans open (the registry closes its
        # own, but a raised begin/end mismatch should not wedge us).
        for span in self._open:
            span["duration_s"] = (now - self._t0) - span["start_s"]
            span["status"] = "error"
        self._open = []
        # An error recorded mid-trace (failed span, absorbed worker
        # error) sticks even when the bracketing caller saw success.
        if trace["status"] != "error":
            trace["status"] = status
        trace["duration_s"] = now - self._t0
        self._trace = None
        self.finished.append(trace)
        self.traces_finished += 1
        return trace

    # -- span hooks (called by MetricsRegistry.span) ---------------------
    def open_span(self, name: str, labels: dict) -> dict | None:
        """Record a span start; returns the live span dict (or None)."""
        if self._trace is None:
            return None
        self._next_id += 1
        span = {
            "span_id": f"{self.id_prefix}{self._next_id}",
            "parent_id": self.current_span_id,
            "name": name,
            "labels": dict(labels),
            "start_s": time.perf_counter() - self._t0,
            "duration_s": 0.0,
            "status": "ok",
        }
        self._trace["spans"].append(span)
        self._open.append(span)
        return span

    def close_span(self, span: dict, duration: float, status: str) -> None:
        if span is None or self._trace is None:
            return
        span["duration_s"] = float(duration)
        span["status"] = status
        if status == "error":
            self._trace["status"] = "error"
        if self._open and self._open[-1] is span:
            self._open.pop()
        elif span in self._open:  # defensive: out-of-order close
            self._open.remove(span)

    # -- worker merge ----------------------------------------------------
    def absorb(self, trace: dict, span_prefix: str | None = None) -> None:
        """Graft a worker's finished trace into this collector.

        When the worker's ``trace_id`` matches the live trace, its spans
        are re-anchored so they *end* at merge time (the parent cannot
        know when the worker actually started relative to its own
        clock) and appended to the live span list; otherwise the trace
        is kept whole in the finished ring.  ``span_prefix`` re-roots
        span names the same way the registry re-roots span histograms.
        """
        spans = [dict(span) for span in trace.get("spans", [])]
        if span_prefix:
            for span in spans:
                span["name"] = f"{span_prefix}/{span['name']}"
        live = self._trace
        if live is not None and live["trace_id"] == trace.get("trace_id"):
            base = (time.perf_counter() - self._t0) - float(
                trace.get("duration_s", 0.0)
            )
            for span in spans:
                span["start_s"] = float(span["start_s"]) + base
                if span.get("parent_id") is None:
                    span["parent_id"] = self.current_span_id
            live["spans"].extend(spans)
            if trace.get("status") == "error":
                live["status"] = "error"
        else:
            self.finished.append({**trace, "spans": spans})
            self.traces_finished += 1

    # -- inspection ------------------------------------------------------
    def drain(self) -> list[dict]:
        """Pop and return all finished traces (oldest first)."""
        traces = list(self.finished)
        self.finished.clear()
        return traces

    def traces(self, limit: int | None = None) -> list[dict]:
        """The newest ``limit`` finished traces, oldest first."""
        traces = list(self.finished)
        if limit is not None:
            traces = traces[-limit:]
        return traces


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_trace_timeline(trace: dict, width: int = 80) -> str:
    """Draw one trace as an indented timeline with the critical path.

    Each span gets a line: marker (``*`` = on the critical path),
    indented name, a proportional ``#`` bar positioned on the trace's
    time axis, duration, and a trailing ``!`` for error spans.  Pure
    ASCII so it survives any terminal or CI log.
    """
    spans = list(trace.get("spans", []))
    total = float(trace.get("duration_s", 0.0)) or max(
        (float(s["start_s"]) + float(s["duration_s"]) for s in spans),
        default=0.0,
    )
    header = (
        f"trace {trace.get('trace_id')} [{trace.get('status', '?')}] "
        f"{_format_seconds(total)} - {len(spans)} spans"
    )
    if not spans:
        return header
    children: dict[str | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: float(s["start_s"]))
    by_id = {s["span_id"]: s for s in spans}
    roots = [s for s in spans if s.get("parent_id") not in by_id]

    # Critical path: from the longest root, repeatedly descend into the
    # longest child — the chain of spans that bounds the trace duration.
    critical: set[str] = set()
    if roots:
        node = max(roots, key=lambda s: float(s["duration_s"]))
        while node is not None:
            critical.add(node["span_id"])
            kids = children.get(node["span_id"], [])
            node = max(kids, key=lambda s: float(s["duration_s"]), default=None)

    name_width = min(
        max((2 * _depth(s, by_id) + len(s["name"]) for s in spans), default=0),
        max(width // 2, 20),
    )
    bar_width = max(width - name_width - 22, 10)
    lines = [header]

    def emit(span: dict, depth: int) -> None:
        start = float(span["start_s"])
        duration = float(span["duration_s"])
        begin = int(round(bar_width * start / total)) if total else 0
        length = int(round(bar_width * duration / total)) if total else 0
        begin = min(begin, bar_width - 1)
        length = max(1, min(length, bar_width - begin))
        bar = "." * begin + "#" * length
        bar = bar.ljust(bar_width, ".")
        marker = "*" if span["span_id"] in critical else " "
        flag = " !" if span.get("status") == "error" else ""
        label = ("  " * depth + span["name"])[:name_width].ljust(name_width)
        lines.append(
            f"{marker} {label} |{bar}| {_format_seconds(duration):>8}{flag}"
        )
        for child in children.get(span["span_id"], []):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda s: float(s["start_s"])):
        emit(root, 0)
    return "\n".join(lines)


def _depth(span: dict, by_id: dict) -> int:
    depth = 0
    parent = span.get("parent_id")
    while parent in by_id:
        depth += 1
        parent = by_id[parent].get("parent_id")
    return depth
