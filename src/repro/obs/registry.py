"""Metric primitives and the registry that owns them.

Process-local telemetry on numpy; sinks encode with orjson.  Three metric
kinds cover everything the autoscaling loop needs to expose:

* :class:`Counter` — monotonically increasing totals (decisions made,
  QoS violations, scale events);
* :class:`Gauge` — last-written values (nodes currently requested,
  per-epoch training loss);
* :class:`Histogram` — value distributions via a fixed-size reservoir
  sample (plan latencies, warm-up durations), with exact count / sum /
  min / max and approximate quantiles.

A :class:`MetricsRegistry` interns metrics by ``(name, labels)``,
aggregates in memory, and optionally writes to attached sinks (see
:mod:`repro.obs.sinks`) as plain-dict records — the format
:mod:`repro.obs.report` summarizes.  What is written follows one rule,
*a unit of work's telemetry is written once*:

* counters and gauges are state, not events: an update while a sink is
  attached only marks the metric dirty, and :meth:`MetricsRegistry.flush`
  writes the current value of everything that changed since the
  previous flush, as one ``metrics`` record or inside a record it is
  given.  The owner of a loop flushes (the daemon once per tick, into
  the tick's ``trace`` record; the CLI before it closes its sink;
  :meth:`~MetricsRegistry.remove_sink` on the way out);
* a span closed inside an active trace is exported inside that trace's
  ``trace`` record and nowhere else; a span outside any trace streams
  its own ``span`` record;
* histogram observations and free-form events stream one record each,
  the moment they happen.

Instrumented library code never requires a registry argument: it reads
the process-wide *ambient* registry via :func:`get_registry`, which
callers replace with :func:`set_registry` or scope with
:func:`using_registry`.  The default ambient registry has no sinks, so when
telemetry is not being collected no event is built: a counter update is
a dict lookup and a float add (0.35-0.5 us), a span two clock reads, one
dict lookup for its path and histogram, and a histogram update (1.2-2.0
us; ``timeit`` minima on 2 vCPUs).  A minimum never contains a reservoir
keep.  Averaged over a benchmark lap on a fresh registry (6 072
observations, ~1 820 of them kept), a histogram update is 0.7 us and a
span 2.0-2.3 us; 2.1-2.4 us and 3.2-4.4 us while a keep drew three numpy
scalars.  Cheap, not free — so an idle daemon tick opens one span,
``runtime.step``, and times its three phases by four reads of
:attr:`MetricsRegistry.clock` (0.1 us each).  The tick is 8.5-8.6 us
(``idle_tick_us_p50`` on the e2e benchmark's ``serve-bare`` workload),
against 13.9-14.3 us with a span per phase, 17-20 us while the daemon
handed control to its event loop after every tick, 21-23 us before the
stdlib draws, and 38 us before ``span()`` became a plain class and the
reservoir stopped drawing per observation.  With a tracer and a
JSON-lines sink attached, that tick is one ``trace`` record: its span
in integer nanoseconds and the tick's counters and gauges, ~230-330
bytes (``trace_id`` names the tick; the record has no ``name`` or
``labels``).  A 265-byte one takes 1.4 us to encode and 2.7 us to emit
(encode, write, flush; ``timeit`` minima of
:func:`~repro.obs.sinks.encode` and ``JsonlSink.emit``); the ~500-byte
record of a four-span tick took 1.6 and 3.3 us, and 10.4 and 11.6 us
with the stdlib encoder.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .sinks import Sink

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "using_registry",
]

LabelDict = dict[str, str]


def _label_key(labels: LabelDict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def format_metric_key(name: str, labels: LabelDict) -> str:
    """Canonical flat key, e.g. ``runtime.decisions{source=predictive}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared identity plumbing for all metric kinds."""

    kind = ""

    def __init__(self, registry: "MetricsRegistry", name: str, labels: LabelDict):
        self._registry = registry
        self.name = name
        self.labels = dict(labels)

    @property
    def key(self) -> str:
        return format_metric_key(self.name, self.labels)


class Counter(_Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str, labels: LabelDict):
        super().__init__(registry, name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        self.value += amount
        registry = self._registry
        if registry._sinks:
            registry._dirty[self] = None


class Gauge(_Metric):
    """Last-written value (plus convenience add/sub)."""

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str, labels: LabelDict):
        super().__init__(registry, name, labels)
        self.value: float | None = None

    def set(self, value: float) -> None:
        value = float(value)
        if value == self.value:  # unchanged: the next flush has nothing new
            return
        self.value = value
        registry = self._registry
        if registry._sinks:
            registry._dirty[self] = None

    def add(self, amount: float) -> None:
        self.set((self.value or 0.0) + amount)


#: The quantile levels :meth:`Histogram.summary` reports, as one array.
_SUMMARY_LEVELS = np.array([0.5, 0.9, 0.99])


class Histogram(_Metric):
    """Distribution sketch: exact moments + reservoir-sampled quantiles.

    The reservoir (Li's Algorithm L, a stdlib :class:`random.Random`
    seeded per histogram) keeps a uniform sample of all observed values
    in a fixed numpy buffer, so quantile queries stay O(reservoir)
    regardless of how many observations flowed through.  Once the buffer
    is full the rng is consulted only when a value is actually kept —
    about ``size * ln(count / size)`` times — not once per observation.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        labels: LabelDict,
        reservoir_size: int = 1024,
    ):
        super().__init__(registry, name, labels)
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.count = 0
        self.sum = 0.0
        self.min = np.inf
        self.max = -np.inf
        self._filled = 0  # valid entries in the reservoir buffer
        self._reservoir = np.empty(reservoir_size, dtype=np.float64)
        # crc32, not hash(): str hashing is salted by PYTHONHASHSEED, so
        # reservoir contents (and thus quantiles) would differ between
        # processes observing the same value stream.  A stdlib Random, not
        # a numpy Generator: a keep draws three scalars, 0.6 us from the
        # stdlib against 2.6 us as numpy scalar calls.
        self._rng = random.Random(zlib.crc32(self.key.encode("utf-8")))
        # Algorithm L skip state, valid while the buffer is full: the
        # keep-threshold and the ``count`` at which the next value is kept.
        self._threshold = 1.0
        self._next_keep = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self._record(value)
        registry = self._registry
        if registry._sinks:
            registry._emit(
                {
                    "kind": "histogram",
                    "name": self.name,
                    "labels": self.labels,
                    "value": value,
                }
            )

    def _record(self, value: float) -> None:
        """Update moments and reservoir without emitting an event."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        size = len(self._reservoir)
        if self._filled < size:
            self._reservoir[self._filled] = value
            self._filled += 1
            if self._filled == size:
                self._restart_skips()
        elif self.count >= self._next_keep:
            rng = self._rng
            self._reservoir[rng.randrange(size)] = value
            self._threshold *= math.exp(math.log(1.0 - rng.random()) / size)
            self._skip()

    def _restart_skips(self) -> None:
        """Enter Algorithm L with a full buffer at the current count.

        Give every value seen a uniform key and keep the ``size``
        smallest: after ``count`` values the largest kept key is
        Beta(size, count - size + 1).  When the buffer first fills that
        law is Beta(size, 1), the textbook start.
        """
        size = len(self._reservoir)
        self._threshold = self._rng.betavariate(size, self.count - size + 1)
        self._skip()

    def _skip(self) -> None:
        """Draw how many values pass before the next one is kept."""
        # Clamped below 1 so log1p stays finite; 1 - random() is in (0, 1].
        log_miss = math.log1p(-min(self._threshold, 1.0 - 2.0**-53))
        skipped = int(math.log(1.0 - self._rng.random()) / log_miss)
        self._next_keep = self.count + skipped + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float | np.ndarray) -> float | np.ndarray:
        """Approximate quantile(s) from the reservoir sample."""
        if self.count == 0:
            raise ValueError(f"histogram {self.key!r} has no observations")
        sample = self._reservoir[: self._filled]
        result = np.quantile(sample, q)
        return float(result) if np.ndim(result) == 0 else result

    def summary(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        # One np.quantile call for the three levels: bitwise the values of
        # three calls, at a third of the cost.
        p50, p90, p99 = self.quantile(_SUMMARY_LEVELS).tolist()
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }


class MetricsRegistry:
    """Owns metrics, interns them by (name, labels), fans out events.

    Parameters
    ----------
    sinks:
        Optional initial sinks; each receives every record the registry
        writes (see the module docstring for which updates become
        records) as a plain dict.
    time_source:
        Wall-clock for event timestamps (patchable in tests).
    """

    def __init__(self, sinks: "list[Sink] | None" = None, time_source=time.time):
        self._metrics: dict[tuple, _Metric] = {}
        self._sinks: list[Sink] = list(sinks) if sinks else []
        # Counters and gauges updated while a sink was attached and not
        # yet written by flush(); a dict for its insertion order.
        self._dirty: dict[_Metric, None] = {}
        self._time = time_source
        # Full paths of the open spans, innermost last.
        self._span_stack: list[str] = []
        # (parent path, name, labels) -> (path, duration histogram): a span
        # resolves its path and histogram once per registry, not per entry.
        self._span_paths: dict[tuple, tuple[str, Histogram]] = {}
        self._tracer = None

    # -- metric accessors ------------------------------------------------
    def _intern(self, cls, name: str, labels: LabelDict, **kwargs) -> _Metric:
        key = (cls.kind, name, _label_key(labels) if labels else ())
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(self, name, labels, **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._intern(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._intern(Gauge, name, labels)

    def histogram(
        self, name: str, reservoir_size: int = 1024, **labels: str
    ) -> Histogram:
        return self._intern(Histogram, name, labels, reservoir_size=reservoir_size)

    def histograms(self, name: str) -> list[Histogram]:
        """The histogram of ``name`` under every label set; creates none."""
        return [
            metric
            for (kind, metric_name, _), metric in self._metrics.items()
            if kind == "histogram" and metric_name == name
        ]

    # -- spans -----------------------------------------------------------
    def span(self, name: str, **labels: str) -> "_Span":
        """Time a block of work as a nested wall-clock span.

        Nested ``span()`` calls build slash-joined paths
        (``plan/forecast`` inside ``plan``); each completed span records
        its duration into a histogram keyed by the full path.  A span
        closed inside an active trace is exported by that trace's record;
        any other span emits its own ``span`` record to the sinks.  The
        ``with`` target is the span; after the block its ``seconds`` is
        the duration it recorded.
        """
        return _Span(self, name, labels)

    @property
    def clock(self):
        """The clock spans read: a function returning monotonic integer
        nanoseconds (:func:`time.perf_counter_ns`).  Code that times work
        between spans, such as ``AutoscalingRuntime.step``'s phases,
        reads it here, so its timings and the spans' share one clock."""
        return time.perf_counter_ns

    # -- tracing ---------------------------------------------------------
    def set_tracer(self, tracer):
        """Attach a :class:`~repro.obs.trace.TraceCollector` (or None).

        While attached, a ``span()`` block that completes inside an
        open trace (``tracer.begin()`` … ``end()``) is recorded as a
        trace span and written with that trace; returns the previously
        attached tracer so callers can restore it.
        """
        previous = self._tracer
        self._tracer = tracer
        return previous

    @property
    def tracer(self):
        """The attached trace collector, or None."""
        return self._tracer

    # -- sinks and snapshots ---------------------------------------------
    def add_sink(self, sink: "Sink") -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink: "Sink") -> None:
        """Detach ``sink`` after flushing what it has not yet been told."""
        self.flush()
        self._sinks.remove(sink)

    def flush(self, record: dict | None = None) -> None:
        """Write the counters and gauges that changed since the last flush.

        The current value of each, keyed by flat metric key, goes out as
        a record's ``counters`` / ``gauges``: by default a ``metrics``
        record, and nothing is written when nothing changed.  Given
        ``record`` — the daemon passes the ``trace`` record of the tick
        it just closed — they ride in it, which is written either way,
        so the tick costs one record.  Whoever owns a loop calls this
        once per iteration — a crash then loses at most the counter
        values of the iteration in flight (events, spans and traces are
        written as they happen).  Callers check :attr:`active` first.
        """
        dirty = self._dirty
        if record is None:
            if not dirty:
                return
            record = {"kind": "metrics", "name": "registry", "labels": {}}
        if dirty:
            counters: dict[str, float] = {}
            gauges: dict[str, float] = {}
            for metric in dirty:
                (counters if metric.kind == "counter" else gauges)[metric.key] = metric.value
            dirty.clear()
            record["counters"] = counters
            record["gauges"] = gauges
        self._emit(record)

    @property
    def active(self) -> bool:
        """True when at least one sink is attached.

        Instrumentation that must *build* a payload (e.g. a provenance
        record) checks this first, so a sink-less run pays nothing
        beyond the attribute read.
        """
        return bool(self._sinks)

    def emit_event(self, kind: str, name: str, **payload) -> None:
        """Publish a free-form structured event to the sinks.

        The metric classes cover scalar telemetry; richer one-off
        records — provenance of a planning decision, a drift event, an
        alert — flow through here with a caller-chosen ``kind`` so
        existing sinks and ``report`` pick them up with no extra wiring.
        No-op when no sinks are attached.
        """
        if not self._sinks:
            return
        self._emit({"kind": kind, "name": name, "labels": {}, **payload})

    def _emit(self, record: dict) -> None:
        """Stamp and fan out ``record``; callers check for sinks first."""
        record.setdefault("ts", self._time())
        for sink in self._sinks:
            sink.emit(record)

    def snapshot(self) -> dict[str, dict]:
        """Aggregate state as plain dicts, keyed by flat metric key.

        ``spans`` carries the duration histograms recorded by
        :meth:`span` (name is the full slash path, without the
        ``span/`` prefix used internally to avoid collisions).
        """
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}
        for metric in self._metrics.values():
            if isinstance(metric, Counter):
                out["counters"][metric.key] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][metric.key] = metric.value
            elif isinstance(metric, Histogram):
                if metric.name.startswith("span/"):
                    key = format_metric_key(metric.name[len("span/") :], metric.labels)
                    out["spans"][key] = metric.summary()
                else:
                    out["histograms"][metric.key] = metric.summary()
        return out


class _Span:
    """The context manager behind :meth:`MetricsRegistry.span`.

    A plain slotted class: a generator-based context manager cost more
    than the work the idle daemon tick's spans timed.
    ``seconds`` is the duration the span recorded, set when it exits.
    """

    __slots__ = ("_registry", "_name", "_labels", "_path", "_histogram", "_tracer",
                 "_token", "_start", "seconds")

    def __init__(self, registry: MetricsRegistry, name: str, labels: LabelDict):
        self._registry = registry
        self._name = name
        self._labels = labels

    def __enter__(self) -> "_Span":
        registry = self._registry
        stack = registry._span_stack
        parent = stack[-1] if stack else None
        labels = self._labels
        key = (parent, self._name, tuple(labels.items()) if labels else ())
        resolved = registry._span_paths.get(key)
        if resolved is None:
            path = f"{parent}/{self._name}" if stack else self._name
            histogram = registry._intern(Histogram, f"span/{path}", labels)
            resolved = registry._span_paths[key] = (path, histogram)
        self._path, self._histogram = resolved
        stack.append(self._path)
        self._tracer = tracer = registry._tracer
        self._token = tracer.open_span(self._path, labels) if tracer is not None else None
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        elapsed = time.perf_counter_ns() - self._start
        registry = self._registry
        registry._span_stack.pop()
        # Seconds as ``report`` reads them back from the integer record.
        self.seconds = seconds = elapsed / 1e9
        self._histogram._record(seconds)
        status = "ok" if exc_type is None else "error"
        if self._token is not None:
            # Captured by the active trace: its ``trace`` record is the
            # one place this span is written.
            self._tracer.close_span(self._token, elapsed, status)
        elif registry._sinks:
            # The trace span's shape; ``start_ns`` reads the process's
            # monotonic clock, as there is no trace start to offset from.
            record = {"kind": "span", "name": self._path, "start_ns": self._start,
                      "duration_ns": elapsed}
            if self._labels:
                record["labels"] = dict(self._labels)
            if status != "ok":
                record["status"] = status
            registry._emit(record)


# -- ambient registry ----------------------------------------------------
_ambient = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code writes to."""
    return _ambient


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as ambient; returns the previous one."""
    global _ambient
    previous = _ambient
    _ambient = registry
    return previous


@contextmanager
def using_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the ambient registry to a ``with`` block (test-friendly)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
