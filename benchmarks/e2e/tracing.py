"""Timing proxies the harness puts around each layer's public calls.

Nothing under ``src/`` knows about these spans.  For a traced lap the
harness swaps the public methods listed in :func:`layer_entry_points`
for wrappers that record ``(name, start, end, parent, tick)`` and swaps
them back afterwards.  The methods are replaced on their classes, not on
instances, because the adaptation layer deep-copies and pickles
forecasters: a wrapper stored on an instance would be copied along and
keep calling the object it was taken from.

A span's name is ``<layer>.<operation>``.  Its self time is its duration
minus the durations of its direct children, so the self times of all
spans of a lap add up to the time covered by root spans.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "Tracer",
    "timed",
    "patched",
    "layer_entry_points",
    "layer_of",
    "SpanTable",
]

#: Span-name prefix -> the module the time is charged to.
LAYERS = {
    "forecast": "forecast",
    "planner": "core.planner",
    "runtime": "core.runtime",
    "obs": "obs",
    "service": "service",
    "adaptation": "adaptation",
}


def layer_of(span_name: str) -> str:
    """The layer a span is charged to (from its ``<layer>.`` prefix)."""
    return LAYERS[span_name.split(".", 1)[0]]


class Tracer:
    """In-memory span recorder for one thread.

    The tick loop and the control-plane handlers run on one thread (the
    daemon's event loop), so an explicit stack is enough to find each
    span's parent.  The HTTP client thread never records spans.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, tick]
        self.tick = -1  # identifier shared by the spans of one tick
        self._stack: list[int] = []

    def reset(self) -> None:
        """Forget the spans recorded so far (the warm-up's); none may be open."""
        self.spans.clear()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.tick])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()


def timed(tracer: Tracer, name: str, function):
    """``function`` with a span named ``name`` around every call."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


def layer_entry_points() -> list[tuple[type, str, str]]:
    """``(class, method, span name)`` for every boundary a lap can cross."""
    from repro.adaptation import AdaptationManager
    from repro.core import (
        AutoscalingRuntime,
        RobustAutoScalingManager,
        RobustPredictiveAutoscaler,
    )
    from repro.forecast import DeepARForecaster, MLPForecaster, TFTForecaster
    from repro.forecast.neural import NeuralForecaster
    from repro.obs import JsonlSink, ModelHealthMonitor
    from repro.service import ServiceRuntime

    return [
        (AutoscalingRuntime, "step", "runtime.step"),
        (RobustPredictiveAutoscaler, "plan", "planner.plan"),
        (RobustAutoScalingManager, "plan", "planner.solve"),
        (NeuralForecaster, "fit", "forecast.fit"),
        (TFTForecaster, "predict", "forecast.predict"),
        (DeepARForecaster, "predict", "forecast.predict"),
        (MLPForecaster, "predict", "forecast.predict"),
        (DeepARForecaster, "sample_paths", "forecast.sample"),
        (ModelHealthMonitor, "observe", "obs.monitor_observe"),
        (JsonlSink, "emit", "obs.sink_emit"),
        (ServiceRuntime, "write_checkpoint", "service.checkpoint_write"),
        (AdaptationManager, "on_tick", "adaptation.on_tick"),
        (AdaptationManager, "refit", "adaptation.refit"),
    ]


@contextmanager
def patched(tracer: Tracer, points: list[tuple[type, str, str]]):
    """Install span wrappers on ``points`` for the duration of the block."""
    originals = []
    try:
        for owner, attribute, name in points:
            # vars(): the method must be the class's own, or restoring it
            # would leave a copy shadowing the base class.
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, timed(tracer, name, original))
        yield tracer
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


class SpanTable:
    """The spans of one lap as arrays, with self times and layer totals."""

    def __init__(self, spans: list[list], lap_start: float, lap_end: float) -> None:
        self.names = [span[0] for span in spans]
        self.start = np.array([span[1] for span in spans], dtype=np.float64)
        self.end = np.array([span[2] for span in spans], dtype=np.float64)
        self.parent = np.array([span[3] for span in spans], dtype=np.int64)
        self.tick = np.array([span[4] for span in spans], dtype=np.int64)
        self.lap_start = lap_start
        self.wall = lap_end - lap_start
        self.duration = self.end - self.start
        self.self_time = self.duration.copy()
        children = self.parent >= 0
        np.subtract.at(self.self_time, self.parent[children], self.duration[children])
        self._by_name: dict[str, np.ndarray] = {}
        name_array = np.array(self.names, dtype=object)
        for name in set(self.names):
            self._by_name[name] = np.flatnonzero(name_array == name)

    def indices(self, name: str) -> np.ndarray:
        return self._by_name.get(name, np.empty(0, dtype=np.int64))

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self.indices(name)]

    def self_times(self, name: str) -> np.ndarray:
        return self.self_time[self.indices(name)]

    def count(self, name: str) -> int:
        return int(self.indices(name).size)

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer; every layer is present."""
        totals = dict.fromkeys(LAYERS.values(), 0.0)
        for name, rows in self._by_name.items():
            totals[layer_of(name)] += float(self.self_time[rows].sum())
        return totals

    def unattributed_seconds(self) -> float:
        """Lap wall time no root span covers."""
        return self.wall - float(self.duration[self.parent < 0].sum())

    def write_jsonl(self, path: Path) -> None:
        """One span per line; times are seconds since the lap started."""
        with path.open("w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": layer_of(name),
                            "start": self.start[index] - self.lap_start,
                            "end": self.end[index] - self.lap_start,
                            "parent": int(self.parent[index]),
                            "tick": int(self.tick[index]),
                        }
                    )
                    + "\n"
                )
