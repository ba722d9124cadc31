"""Streaming model-health monitors for the closed autoscaling loop.

The paper's argument rests on forecast uncertainty being *trustworthy*:
the adaptive policy reacts to estimated uncertainty, and the robust
bounds only hold if the quantile forecasts stay calibrated.  Offline
metrics (``repro.evaluation.metrics``) score a finished run; this module
watches calibration *while the loop runs*, the way RobustScaler couples
its scaler to continuous uncertainty estimates and OptScaler monitors
prediction reliability online.

:class:`ModelHealthMonitor` consumes one ``(forecast quantiles,
realized value)`` pair per interval and maintains:

* **windowed calibration** — per-level empirical coverage vs. nominal
  over fixed-size windows, plus the mean absolute calibration error;
* **rolling accuracy** — per-window wQL (per level and mean) and MAPE
  of the median forecast;
* **residual drift** — one :class:`CUSUM` detector on spread-normalised
  residuals, emitting a regime-change event the moment the forecaster's
  error distribution moves.

Everything is published through the ambient metrics registry
(:func:`repro.obs.get_registry`), so any attached sink — JSONL file or
in-memory buffer — receives ``model_health`` events for free, and
``repro-autoscale report`` can reconstruct the full health timeline
from a telemetry file.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .registry import get_registry

if TYPE_CHECKING:  # pragma: no cover
    from ..forecast.base import QuantileForecast
    from .alerts import AlertEngine, SLOTracker

__all__ = ["CUSUM", "DriftEvent", "WindowStats", "LevelGrid", "ModelHealthMonitor"]

#: Floor for the residual-normalisation scale, so degenerate (zero
#: width) forecast fans cannot produce infinite drift statistics.
_SCALE_FLOOR = 1e-9


class CUSUM:
    """Two-sided cumulative-sum detector for mean shift in a stream.

    Classic tabular CUSUM: accumulate deviations beyond a slack
    ``drift`` on each side, fire when either side's sum exceeds
    ``threshold``, then start again from zero.  Input is expected to be
    roughly unit-scale — the monitor feeds spread-normalised residuals.
    It is the monitor's one detector: at a matched false-alarm rate it
    found level shifts sooner than Page-Hinkley, and missed fewer
    (docs/observability.md, Drift detection).
    """

    def __init__(
        self, threshold: float = 8.0, drift: float = 0.5, min_samples: int = 6
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if drift < 0:
            raise ValueError("drift must be non-negative")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.threshold = threshold
        self.drift = drift
        self.min_samples = min_samples
        self.reset()

    #: statistic/direction at the moment of the most recent firing
    fired_score: float = 0.0
    fired_direction: str = "none"

    def reset(self) -> None:
        self._count = 0
        self._pos = 0.0
        self._neg = 0.0

    def update(self, value: float) -> bool:
        self._count += 1
        self._pos = max(0.0, self._pos + value - self.drift)
        self._neg = max(0.0, self._neg - value - self.drift)
        if self._count < self.min_samples:
            return False
        if self.score > self.threshold:
            # Snapshot the firing statistic before the reset wipes it —
            # drift events report the score that crossed the threshold.
            self.fired_score = self.score
            self.fired_direction = self.direction
            self.reset()
            return True
        return False

    def state_dict(self) -> dict:
        return {
            "count": self._count,
            "pos": self._pos,
            "neg": self._neg,
            "fired_score": self.fired_score,
            "fired_direction": self.fired_direction,
        }

    def load_state_dict(self, state: dict) -> "CUSUM":
        self._count = int(state["count"])
        self._pos = float(state["pos"])
        self._neg = float(state["neg"])
        self.fired_score = float(state["fired_score"])
        self.fired_direction = state["fired_direction"]
        return self

    @property
    def score(self) -> float:
        return max(self._pos, self._neg)

    @property
    def direction(self) -> str:
        if self._pos == self._neg == 0.0:
            return "none"
        return "up" if self._pos >= self._neg else "down"


@dataclass(frozen=True)
class DriftEvent:
    """One regime-change firing of the monitor's :class:`CUSUM`."""

    time_index: int
    score: float
    direction: str

    def as_record(self) -> dict:
        return {
            "kind": "model_health",
            "name": "monitor.drift",
            "time_index": self.time_index,
            "score": self.score,
            "direction": self.direction,
        }


@dataclass(frozen=True)
class WindowStats:
    """Model-health aggregates over one completed monitoring window."""

    window: int
    start_index: int
    end_index: int
    steps: int
    coverage: dict[str, float]  # level (str, e.g. "0.9") -> empirical
    calibration_error: float  # mean |empirical - nominal| over levels
    wql: dict[str, float]  # level -> windowed wQL
    mean_wql: float
    mape: float
    mean_residual: float
    drift_score: float  # CUSUM statistic at window close
    drift_events: int  # firings inside this window
    violation_rate: float | None = None  # when allocations were observed
    degraded_intervals: int = 0  # intervals served by a degraded plan
    degraded_rate: float = 0.0  # degraded_intervals / steps

    def as_record(self) -> dict:
        record = {
            "kind": "model_health",
            "name": "monitor.window",
            "window": self.window,
            "start_index": self.start_index,
            "end_index": self.end_index,
            "steps": self.steps,
            "coverage": dict(self.coverage),
            "calibration_error": self.calibration_error,
            "wql": dict(self.wql),
            "mean_wql": self.mean_wql,
            "mape": self.mape,
            "mean_residual": self.mean_residual,
            "drift_score": self.drift_score,
            "drift_events": self.drift_events,
            "degraded_intervals": self.degraded_intervals,
            "degraded_rate": self.degraded_rate,
        }
        if self.violation_rate is not None:
            record["violation_rate"] = self.violation_rate
        return record


def _level_key(tau: float) -> str:
    """Stable string form for a quantile level (JSON-safe dict key)."""
    return format(float(tau), "g")


def _sum(values: list) -> float:
    """``np.add.reduce(values)`` to the bit, calling numpy only from 8 values.

    Below 8 values numpy adds them one after another starting from 0.0,
    as the loop does; from 8 on it sums pairwise in blocks of 8, so a
    longer list takes the one numpy call.
    """
    if len(values) >= 8:
        return float(np.add.reduce(values))
    total = 0.0
    for value in values:
        total += value
    return total


def _mean(values: list) -> float:
    """``np.mean(values)`` to the bit (its sum over the count)."""
    return _sum(values) / len(values)


class LevelGrid:
    """A quantile-level grid resolved once for :meth:`ModelHealthMonitor.observe`.

    What a tick would otherwise derive from the levels again: the order
    that sorts them ascending (None when they already are — np.interp
    needs ascending abscissae and the drift spread reads the extreme
    quantiles at the ends), the sorted levels as Python floats and their
    keys, and where 0.5 falls among them.  Built by
    :meth:`ModelHealthMonitor.level_grid`, which the runtime asks once
    per committed plan, the adaptation shadow feed once per candidate
    forecast and :meth:`ModelHealthMonitor.observe_forecast` once per
    window.
    """

    __slots__ = ("order", "taus", "keys", "_at", "_span")

    def __init__(self, levels) -> None:
        levels = np.asarray(levels, dtype=np.float64)
        if levels.ndim != 1 or not len(levels):
            raise ValueError("levels must be a non-empty 1-D grid")
        order = None
        if len(levels) > 1 and np.any(np.diff(levels) < 0):
            order = np.argsort(levels)
            levels = levels[order]
            order = order.tolist()
        self.order = order
        self.taus = taus = levels.tolist()
        self.keys = [_level_key(tau) for tau in taus]
        # np.interp(0.5, taus, column) reads column[at] when 0.5 is a
        # level or lies outside the grid, and interpolates between at and
        # at + 1 otherwise, at being the last level <= 0.5.
        at = bisect_right(taus, 0.5) - 1
        self._at, self._span = max(at, 0), None
        if 0 <= at < len(taus) - 1 and taus[at] != 0.5:
            lo, hi = taus[at], taus[at + 1]
            self._span = (0.5 - lo, hi - lo, 0.5 - hi)

    def median(self, column: list) -> float:
        """``np.interp(0.5, taus, column)``: the same operations, on floats."""
        at = self._at
        if self._span is None:
            return column[at]
        offset, width, offset_hi = self._span
        lo, hi = column[at], column[at + 1]
        slope = (hi - lo) / width
        median = slope * offset + lo
        if median != median:  # np.interp's retry from the upper end
            median = slope * offset_hi + hi
            if median != median and lo == hi:
                median = lo
        return median


class ModelHealthMonitor:
    """Online calibration, accuracy, and drift tracking.

    Feed one forecast/actual pair per interval via :meth:`observe` (the
    runtime does this automatically when a monitor is attached), or a
    whole forecast window via :meth:`observe_forecast` (the backtest
    integration).  Aggregates are finalised every ``window`` steps;
    the :class:`CUSUM` drift detector (:attr:`detector`) runs on every
    step, over spread-normalised residuals.

    Parameters
    ----------
    window:
        Steps per calibration window.  Smaller windows localise drift
        better but make per-level coverage noisier; the default (24 =
        4 hours at 10-minute intervals) matches the paper's replan
        cadence order of magnitude.
    alerts:
        Optional :class:`~repro.obs.alerts.AlertEngine`; when present,
        every finalised window record is evaluated against its rules.
    slos:
        Optional :class:`~repro.obs.alerts.SLOTracker` over the
        ``alerts`` engine (another engine is a ``ValueError``); after
        the engine has evaluated a finalised window, the tracker
        publishes each objective's error-budget status.
    eps:
        Denominator guard for MAPE (positive).
    """

    def __init__(
        self,
        window: int = 24,
        alerts: "AlertEngine | None" = None,
        slos: "SLOTracker | None" = None,
        eps: float = 1e-9,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not eps > 0:
            raise ValueError("eps must be positive")
        if slos is not None and slos.engine is not alerts:
            raise ValueError("slos must be a tracker over the monitor's alerts engine")
        self.window = window
        self.detector = CUSUM()
        self.alerts = alerts
        self.slos = slos
        self.eps = eps

        self.steps_observed = 0
        self.windows: list[WindowStats] = []
        self.drift_events: list[DriftEvent] = []
        self._reset_window()
        self._window_count = 0
        self._window_drift_events = 0
        # The last LevelGrid built, and the bytes of its levels (a caller
        # may overwrite one array, so identity cannot recognise a grid).
        self._grid_bytes: bytes | None = None
        self._grid: LevelGrid | None = None

    # -- per-window accumulator state ----------------------------------
    def _reset_window(self) -> None:
        self._buf_indices: list[int] = []
        self._buf_actuals: list[float] = []
        self._buf_medians: list[float] = []
        self._buf_violations: list[bool] = []
        # One slot per level key, in the order the window first saw them:
        # its key, first-seen level, coverage flags and summed pinball loss.
        self._slot_of: dict[str, int] = {}
        self._keys: list[str] = []
        self._taus: list[float] = []
        self._covered: list[list[bool]] = []
        self._ql: list[float] = []
        # The grid observe() last mapped onto the slots, and that mapping.
        self._bound: LevelGrid | None = None
        self._bound_slots: list[int] = []
        self._window_drift_events = 0
        self._window_steps = 0
        self._window_degraded = 0

    def _add_slot(self, key: str, tau: float) -> int:
        slot = self._slot_of[key] = len(self._keys)
        self._keys.append(key)
        self._taus.append(tau)
        self._covered.append([])
        self._ql.append(0.0)
        return slot

    def _bind(self, grid: LevelGrid) -> None:
        """Map ``grid``'s levels onto this window's slots (once per grid)."""
        slot_of = self._slot_of
        slots = [
            slot_of[key] if key in slot_of else self._add_slot(key, tau)
            for key, tau in zip(grid.keys, grid.taus)
        ]
        self._bound, self._bound_slots = grid, slots

    def level_grid(self, levels) -> LevelGrid:
        """The :class:`LevelGrid` of ``levels``, built again only when
        their bytes differ from the last grid's: a planner commits the
        same grid plan after plan."""
        levels = np.asarray(levels, dtype=np.float64)
        raw = levels.tobytes()
        if raw != self._grid_bytes:
            self._grid_bytes, self._grid = raw, LevelGrid(levels)
        return self._grid

    # -- feeding -------------------------------------------------------
    def observe(
        self,
        levels: "LevelGrid | np.ndarray",
        values: np.ndarray,
        actual: float,
        time_index: int,
        nodes: int | None = None,
        threshold: float | None = None,
    ) -> None:
        """Ingest one interval's forecast quantiles and realized value.

        Python floats throughout: the same IEEE arithmetic as the numpy
        calls the window statistics are defined by, without one per tick.

        Parameters
        ----------
        levels, values:
            The quantile levels (shape ``(L,)``, or a :class:`LevelGrid`
            built from them) and the corresponding forecasts *for this
            single step* (shape ``(L,)``; a numpy array when ``levels``
            is a grid).
        actual:
            The workload that materialised.
        time_index:
            Absolute interval index (drift events carry it).
        nodes, threshold:
            Optionally, the allocation that served this interval and the
            per-node threshold — enables the window's QoS
            ``violation_rate`` (and alert rules on it).
        """
        if type(levels) is not LevelGrid:
            levels = self.level_grid(levels)
            values = np.asarray(values, dtype=np.float64)
        column = values.tolist()
        if len(column) != len(levels.taus):
            raise ValueError(
                f"{len(column)} forecast values for {len(levels.taus)} levels"
            )
        if levels.order is not None:
            column = [column[i] for i in levels.order]
        if levels is not self._bound:
            self._bind(levels)
        actual = float(actual)
        median = levels.median(column)

        self._buf_indices.append(int(time_index))
        self._buf_actuals.append(actual)
        self._buf_medians.append(median)
        covered, ql = self._covered, self._ql
        for slot, tau, predicted in zip(self._bound_slots, levels.taus, column):
            # Ties count as covered: the quantile definition is
            # P(X <= q) >= tau, so actual == predicted satisfies it.
            covered[slot].append(predicted >= actual)
            indicator = 1.0 if actual <= predicted else 0.0
            ql[slot] += (tau - indicator) * (actual - predicted)
        if nodes is not None and threshold is not None:
            self._buf_violations.append(actual > nodes * threshold)

        # Drift detection on the spread-normalised residual.
        spread = column[-1] - column[0] if len(column) > 1 else 0.0
        scale = max(spread, _SCALE_FLOOR)
        detector = self.detector
        if detector.update((actual - median) / scale):
            event = DriftEvent(
                time_index=int(time_index),
                score=float(detector.fired_score),
                direction=detector.fired_direction,
            )
            self.drift_events.append(event)
            self._window_drift_events += 1
            registry = get_registry()
            registry.emit_event(**event.as_record())
            registry.counter("monitor.drift_events").inc()

        self.steps_observed += 1
        self._window_steps += 1
        if self._window_steps >= self.window:
            self._finalize_window()

    def observe_degraded(self, time_index: int) -> None:
        """Ingest one interval served by a degraded (fallback) plan.

        Degraded intervals carry no forecast quantiles, so they cannot
        feed calibration — but they must still advance the window and be
        visible to alerting: the per-window ``degraded_intervals`` /
        ``degraded_rate`` fields count them, and rules such as
        ``degraded_intervals > 0`` fire on them.
        """
        self._buf_indices.append(int(time_index))
        self._window_degraded += 1
        self._window_steps += 1
        self.steps_observed += 1
        get_registry().counter("monitor.degraded_steps").inc()
        if self._window_steps >= self.window:
            self._finalize_window()

    def observe_forecast(
        self,
        forecast: "QuantileForecast",
        actuals: np.ndarray,
        start_index: int = 0,
    ) -> None:
        """Ingest a whole forecast window step by step (backtest path)."""
        actuals = np.asarray(actuals, dtype=np.float64)
        grid = self.level_grid(forecast.levels)
        values = np.asarray(forecast.values, dtype=np.float64)
        for h in range(min(forecast.horizon, len(actuals))):
            self.observe(grid, values[:, h], actuals[h], time_index=start_index + h)

    # -- window finalisation -------------------------------------------
    def _finalize_window(self) -> None:
        """Close the window in one pass over its buffers.

        Each statistic has the bits of its numpy definition (np.mean of
        the flags, of the per-level errors, of the 24 ratios...):
        coverage is a count over a count, a mean of fewer than 8 values
        a sequential sum, and each longer float reduction one numpy call.
        """
        actuals, medians = self._buf_actuals, self._buf_medians
        steps, count = self._window_steps, len(actuals)
        keys = self._keys
        coverage = {
            key: flags.count(True) / len(flags)
            for key, flags in zip(keys, self._covered)
        }
        calibration_error = (
            _mean([abs(c - tau) for c, tau in zip(coverage.values(), self._taus)])
            if coverage
            else 0.0
        )
        absolute = [abs(a) for a in actuals]
        abs_sum = _sum(absolute)
        if abs_sum > 0.0:
            wql = {key: 2.0 * ql / abs_sum for key, ql in zip(keys, self._ql)}
        else:
            wql = dict.fromkeys(keys, 0.0)
        # A fully degraded window has no forecasted steps at all — the
        # accuracy aggregates are defined as 0 rather than NaN.
        mape = mean_residual = 0.0
        if count:
            eps = self.eps
            residuals = [a - m for a, m in zip(actuals, medians)]
            mean_residual = _sum(residuals) / count
            # |median - actual| / np.maximum(|actual|, eps); a NaN passes
            # through the guard as np.maximum lets it.
            mape = _sum(
                [abs(r) / (eps if d < eps else d) for r, d in zip(residuals, absolute)]
            ) / count
        violations = self._buf_violations
        stats = WindowStats(
            window=self._window_count,
            start_index=self._buf_indices[0],
            end_index=self._buf_indices[-1],
            steps=steps,
            coverage=coverage,
            calibration_error=calibration_error,
            wql=wql,
            mean_wql=_mean(list(wql.values())) if wql else 0.0,
            mape=mape,
            mean_residual=mean_residual,
            drift_score=self.detector.score,
            drift_events=self._window_drift_events,
            violation_rate=(
                violations.count(True) / len(violations) if violations else None
            ),
            degraded_intervals=self._window_degraded,
            degraded_rate=self._window_degraded / steps if steps else 0.0,
        )
        self.windows.append(stats)
        self._window_count += 1
        self._reset_window()

        registry = get_registry()
        record = stats.as_record()
        registry.emit_event(**record)
        for key, value in coverage.items():
            registry.gauge("monitor.coverage", level=key).set(value)
        registry.counter("monitor.windows").inc()

        if self.alerts is not None:
            self.alerts.evaluate(record)
        if self.slos is not None:
            self.slos.observe_window(record)

    # -- checkpoint/restore --------------------------------------------
    def state_dict(self) -> dict:
        """The monitor's full streaming state as JSON-safe containers.

        Covers finalised windows, the open window's accumulators, the
        drift detector's internals, and (when an alert engine is
        attached) its streaks, firing flags and ledgers, which SLO
        objectives read too — everything needed for a restored monitor
        to produce bit-identical windows, drift events, and alerts from
        the same subsequent observation stream.  Configuration (window
        size, rules) is not serialized; a restored monitor keeps what it
        was constructed with.
        """
        return {
            "steps_observed": self.steps_observed,
            "window_count": self._window_count,
            # Shallow field dicts, not asdict's recursive deep copy: the
            # per-level dicts are the only mutable fields.
            "windows": [
                {**vars(w), "coverage": dict(w.coverage), "wql": dict(w.wql)}
                for w in self.windows
            ],
            "drift_events": [dict(vars(d)) for d in self.drift_events],
            "detector": self.detector.state_dict(),
            "buffer": {
                "indices": list(self._buf_indices),
                "actuals": list(self._buf_actuals),
                "medians": list(self._buf_medians),
                "covered": {k: list(v) for k, v in zip(self._keys, self._covered)},
                "taus": dict(zip(self._keys, self._taus)),
                "ql": dict(zip(self._keys, self._ql)),
                "violations": list(self._buf_violations),
                "window_drift_events": self._window_drift_events,
                "window_steps": self._window_steps,
                "window_degraded": self._window_degraded,
            },
            "alerts": self.alerts.state_dict() if self.alerts is not None else None,
        }

    def load_state_dict(self, state: dict) -> "ModelHealthMonitor":
        """Restore streaming state captured by :meth:`state_dict` in place.

        The alert engine's state loads into this monitor's engine: a
        state with an engine and a monitor without one, or the reverse,
        is an error before anything is restored, not a silent loss of
        streaks and fired alerts.
        """
        saved, attached = state["alerts"] is not None, self.alerts is not None
        if saved != attached:
            raise ValueError(
                f"checkpointed monitor.alerts is {'set' if saved else 'None'} but "
                f"this monitor has {'an' if attached else 'no'} alert engine; "
                "configure the same alert rules and SLOs as the checkpointed run"
            )
        self.steps_observed = int(state["steps_observed"])
        self._window_count = int(state["window_count"])
        self.windows = [WindowStats(**w) for w in state["windows"]]
        self.drift_events = [DriftEvent(**d) for d in state["drift_events"]]
        self.detector.load_state_dict(state["detector"])
        buffer = state["buffer"]
        self._buf_indices = [int(v) for v in buffer["indices"]]
        self._buf_actuals = [float(v) for v in buffer["actuals"]]
        self._buf_medians = [float(v) for v in buffer["medians"]]
        self._buf_violations = [bool(v) for v in buffer["violations"]]
        self._slot_of, self._keys, self._taus, self._covered, self._ql = {}, [], [], [], []
        self._bound = None
        for key, flags in buffer["covered"].items():
            slot = self._add_slot(key, float(buffer["taus"][key]))
            self._covered[slot].extend(bool(f) for f in flags)
            self._ql[slot] = float(buffer["ql"][key])
        self._window_drift_events = int(buffer["window_drift_events"])
        self._window_steps = int(buffer["window_steps"])
        self._window_degraded = int(buffer["window_degraded"])
        if attached:
            self.alerts.load_state_dict(state["alerts"])
        return self

    # -- inspection ----------------------------------------------------
    def coverage_series(self, tau: float) -> np.ndarray:
        """Per-window empirical coverage of one level, in window order."""
        key = _level_key(tau)
        return np.array(
            [w.coverage.get(key, np.nan) for w in self.windows], dtype=np.float64
        )

    def window_records(self) -> list[dict]:
        """All finalised windows as plain event records."""
        return [w.as_record() for w in self.windows]

    def drift_records(self) -> list[dict]:
        """All drift events as plain event records."""
        return [d.as_record() for d in self.drift_events]

    def summary(self) -> dict:
        """Headline health figures (latest window + totals)."""
        latest = self.windows[-1] if self.windows else None
        return {
            "steps_observed": self.steps_observed,
            "windows": len(self.windows),
            "drift_events": len(self.drift_events),
            "latest_coverage": dict(latest.coverage) if latest else {},
            "latest_calibration_error": (
                latest.calibration_error if latest else None
            ),
            "latest_mean_wql": latest.mean_wql if latest else None,
            "latest_mape": latest.mape if latest else None,
        }
