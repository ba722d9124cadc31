"""The health monitor's Python-float path against the numpy code it replaced.

``ModelHealthMonitor.observe`` works on Python floats and
``_finalize_window`` closes a window in one pass; both claim the bits of
the numpy formulation they replaced.  :class:`ParentMonitor` keeps that
formulation verbatim (``observe``, ``_finalize_window`` and the
accumulator layout ``state_dict`` writes) as the oracle.  Over generated
streams - 1 to 15 levels, sorted and shuffled grids, actuals tied with a
forecast level, degraded ticks interleaved, and a ``state_dict()`` /
``load_state_dict()`` round trip at a random tick - window records, drift
events, alerts, SLO records and ``state_dict()`` must be byte-equal.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import AlertEngine, MetricsRegistry, SLOTracker, default_rules, using_registry
from repro.obs.monitor import (
    _SCALE_FLOOR,
    CUSUM,
    DriftEvent,
    LevelGrid,
    ModelHealthMonitor,
    WindowStats,
    _level_key,
    get_registry,
)
from repro.obs.sinks import InMemorySink


# -- the oracle: the numpy formulation, verbatim ---------------------------


def _sorted_grid(levels: np.ndarray) -> tuple:
    """``(order, ascending levels, their keys, their float values)``.

    np.interp requires ascending abscissae and the drift spread assumes
    values[0]/values[-1] are the extreme quantiles; an unsorted grid
    would silently corrupt both, so forecasts are sorted by level with
    ``order`` (None when the grid is already ascending).
    """
    order = None
    if len(levels) > 1 and np.any(np.diff(levels) < 0):
        order = np.argsort(levels)
    levels = levels.copy() if order is None else levels[order]
    taus = levels.tolist()
    return order, levels, [_level_key(tau) for tau in taus], taus


class ParentMonitor(ModelHealthMonitor):
    """The monitor as it was before the Python-float path (see module doc)."""

    def __init__(
        self,
        window: int = 24,
        alerts: "AlertEngine | None" = None,
        slos: "SLOTracker | None" = None,
        eps: float = 1e-9,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
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
        # What observe() derives from a levels grid (see _sorted_grid),
        # kept for the grid it saw last and recognised by its raw bytes:
        # a planner feeds the same grid every tick.
        self._grid_bytes: bytes | None = None
        self._grid: tuple = ()

    # -- per-window accumulator state ----------------------------------
    def _reset_window(self) -> None:
        self._buf_indices: list[int] = []
        self._buf_actuals: list[float] = []
        self._buf_medians: list[float] = []
        self._buf_covered: dict[str, list[bool]] = {}
        self._buf_taus: dict[str, float] = {}
        self._buf_ql: dict[str, float] = {}
        self._buf_violations: list[bool] = []
        self._window_drift_events = 0
        self._window_steps = 0
        self._window_degraded = 0

    def observe(
        self,
        levels: np.ndarray,
        values: np.ndarray,
        actual: float,
        time_index: int,
        nodes: int | None = None,
        threshold: float | None = None,
    ) -> None:
        """Ingest one interval's forecast quantiles and realized value.

        Parameters
        ----------
        levels, values:
            The quantile levels (shape ``(L,)``) and the corresponding
            forecasts *for this single step* (shape ``(L,)``).
        actual:
            The workload that materialised.
        time_index:
            Absolute interval index (drift events carry it).
        nodes, threshold:
            Optionally, the allocation that served this interval and the
            per-node threshold — enables the window's QoS
            ``violation_rate`` (and alert rules on it).
        """
        levels = np.asarray(levels, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        raw = levels.tobytes()
        if raw != self._grid_bytes:
            self._grid_bytes, self._grid = raw, _sorted_grid(levels)
        order, levels, keys, taus = self._grid
        if order is not None:
            values = values[order]
        actual = float(actual)
        median = float(np.interp(0.5, levels, values))
        residual = actual - median

        self._buf_indices.append(int(time_index))
        self._buf_actuals.append(actual)
        self._buf_medians.append(median)
        # Python floats from here: the same IEEE arithmetic as the numpy
        # scalars they stand for, without a numpy call per level.
        for key, tau, predicted in zip(keys, taus, values.tolist()):
            self._buf_taus.setdefault(key, tau)
            # Ties count as covered: the quantile definition is
            # P(X <= q) >= tau, so actual == predicted satisfies it.
            self._buf_covered.setdefault(key, []).append(bool(predicted >= actual))
            indicator = 1.0 if actual <= predicted else 0.0
            self._buf_ql[key] = self._buf_ql.get(key, 0.0) + (
                (tau - indicator) * (actual - predicted)
            )
        if nodes is not None and threshold is not None:
            self._buf_violations.append(actual > nodes * threshold)

        # Drift detection on the spread-normalised residual.
        spread = float(values[-1] - values[0]) if len(values) > 1 else 0.0
        scale = max(spread, _SCALE_FLOOR)
        detector = self.detector
        if detector.update(residual / scale):
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

    def _finalize_window(self) -> None:
        actuals = np.asarray(self._buf_actuals, dtype=np.float64)
        medians = np.asarray(self._buf_medians, dtype=np.float64)
        steps = self._window_steps
        coverage = {
            key: float(np.mean(flags)) for key, flags in self._buf_covered.items()
        }
        calibration_error = (
            float(
                np.mean(
                    [abs(coverage[k] - self._buf_taus[k]) for k in coverage]
                )
            )
            if coverage
            else 0.0
        )
        abs_sum = float(np.abs(actuals).sum())
        if abs_sum > 0.0:
            wql = {k: 2.0 * ql / abs_sum for k, ql in self._buf_ql.items()}
        else:
            wql = {k: 0.0 for k in self._buf_ql}
        # A fully degraded window has no forecasted steps at all — the
        # accuracy aggregates are defined as 0 rather than NaN.
        mape = (
            float(
                np.mean(
                    np.abs(medians - actuals) / np.maximum(np.abs(actuals), self.eps)
                )
            )
            if len(actuals)
            else 0.0
        )
        stats = WindowStats(
            window=self._window_count,
            start_index=self._buf_indices[0],
            end_index=self._buf_indices[-1],
            steps=steps,
            coverage=coverage,
            calibration_error=calibration_error,
            wql=wql,
            mean_wql=float(np.mean(list(wql.values()))) if wql else 0.0,
            mape=mape,
            mean_residual=(
                float(np.mean(actuals - medians)) if len(actuals) else 0.0
            ),
            drift_score=self.detector.score,
            drift_events=self._window_drift_events,
            violation_rate=(
                float(np.mean(self._buf_violations))
                if self._buf_violations
                else None
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
                "covered": {k: list(v) for k, v in self._buf_covered.items()},
                "taus": dict(self._buf_taus),
                "ql": dict(self._buf_ql),
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
        self._buf_covered = {
            k: [bool(f) for f in v] for k, v in buffer["covered"].items()
        }
        self._buf_taus = {k: float(v) for k, v in buffer["taus"].items()}
        self._buf_ql = {k: float(v) for k, v in buffer["ql"].items()}
        self._buf_violations = [bool(v) for v in buffer["violations"]]
        self._window_drift_events = int(buffer["window_drift_events"])
        self._window_steps = int(buffer["window_steps"])
        self._window_degraded = int(buffer["window_degraded"])
        if attached:
            self.alerts.load_state_dict(state["alerts"])
        return self



# -- generated streams --------------------------------------------------------

SLOS = ("qos_violation_rate < 0.2 over 8", "coverage@0.9 >= 0.85 over 8")
THRESHOLD = 60.0
forecasts = st.floats(-100.0, 2000.0)


@st.composite
def grids(draw):
    """1-15 distinct levels, sorted or shuffled, sometimes holding 0.5."""
    size = draw(st.integers(1, 15))
    levels = draw(st.lists(st.floats(0.01, 0.99), min_size=size, max_size=size, unique=True))
    if 0.5 not in levels and draw(st.booleans()):
        levels[draw(st.integers(0, size - 1))] = 0.5
    levels = sorted(levels) if draw(st.booleans()) else draw(st.permutations(levels))
    return np.array(levels)


@st.composite
def streams(draw):
    levels = draw(st.lists(grids(), min_size=1, max_size=2))
    ticks = []
    for _ in range(draw(st.integers(0, 60))):
        if draw(st.integers(0, 4)) == 0:
            ticks.append(None)  # a degraded interval
            continue
        grid = draw(st.integers(0, len(levels) - 1))
        values = draw(st.lists(forecasts, min_size=len(levels[grid]), max_size=len(levels[grid])))
        tie = draw(st.one_of(st.none(), st.integers(0, len(values) - 1)))
        actual = max(values[tie], 0.0) if tie is not None else draw(st.floats(0.0, 2000.0))
        nodes = draw(st.one_of(st.none(), st.integers(0, 40)))
        ticks.append((grid, values, actual, nodes))
    return {
        "levels": levels,
        "ticks": ticks,
        "window": draw(st.integers(1, 10)),
        "restore_at": draw(st.integers(0, len(ticks))),
        "as_grid": draw(st.booleans()),
    }


def build(cls, window):
    engine = AlertEngine(default_rules(nominal_level=0.9))
    return cls(window=window, alerts=engine, slos=SLOTracker(SLOS, engine=engine))


def run(cls, stream, as_grid=False):
    """Feed ``stream``, restoring into a fresh monitor at ``restore_at``;
    returns (the sink's records, state at the restore, final state), as JSON."""
    registry = MetricsRegistry(sinks=[InMemorySink()], time_source=lambda: 0.0)
    resolved = [LevelGrid(levels) for levels in stream["levels"]]
    monitor = build(cls, stream["window"])
    with using_registry(registry):
        for t, tick in enumerate(stream["ticks"] + [None]):
            if t == stream["restore_at"]:
                saved = json.dumps(monitor.state_dict())
                monitor = build(cls, stream["window"]).load_state_dict(json.loads(saved))
            if t == len(stream["ticks"]):
                break
            if tick is None:
                monitor.observe_degraded(t)
                continue
            grid, values, actual, nodes = tick
            monitor.observe(
                resolved[grid] if as_grid else stream["levels"][grid],
                np.array(values),
                actual,
                time_index=t,
                nodes=nodes,
                threshold=THRESHOLD if nodes is not None else None,
            )
        registry.flush()
    records = registry._sinks[0].records
    return json.dumps(records), saved, json.dumps(monitor.state_dict())


@settings(max_examples=150, deadline=None)
@given(streams())
def test_monitor_is_byte_equal_to_the_numpy_formulation(stream):
    expected = run(ParentMonitor, stream)
    assert run(ModelHealthMonitor, stream, as_grid=stream["as_grid"]) == expected


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_grid_median_is_np_interp_at_one_half(levels, data):
    column = data.draw(
        st.lists(
            st.one_of(forecasts, st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0])),
            min_size=len(levels),
            max_size=len(levels),
        )
    )
    grid = LevelGrid(levels)
    ordered = column if grid.order is None else [column[i] for i in grid.order]
    with np.errstate(invalid="ignore"):
        expected = float(np.interp(0.5, np.sort(levels), np.array(ordered)))
    median = grid.median(ordered)
    assert repr(median) == repr(expected)
