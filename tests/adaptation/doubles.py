"""Deterministic forecaster/planner doubles for adaptation tests.

The scenarios need a forecaster whose staleness is controllable: a
:class:`FakeForecaster` anchors a flat quantile fan at the mean of the
series tail it was fitted on, so a model fitted pre-shift keeps
forecasting the old level (stale) while a refit clone tracks the
stream.  Real models are exercised in the integration tests; these
doubles keep the state-machine tests fast and exact.
"""

from __future__ import annotations

import numpy as np

from repro.core import AutoscalingRuntime, ScalingPlan
from repro.core.plan import required_nodes
from repro.forecast.base import QuantileForecast
from repro.obs import AlertEngine, ModelHealthMonitor, parse_rule

LEVELS = (0.1, 0.5, 0.9)
THRESHOLD = 200.0


class FakeForecaster:
    """Flat quantile fan centred on the fitted level of the series tail."""

    def __init__(self, horizon: int = 4, spread: float = 20.0, tail: int = 12):
        self.horizon = horizon
        self.spread = spread
        self.tail = tail
        self.center: "float | None" = None
        self.fit_lengths: list[int] = []

    def fit(self, series):
        series = np.asarray(series, dtype=np.float64)
        self.center = float(np.mean(series[-self.tail :]))
        self.fit_lengths.append(len(series))
        return self

    def state_dict(self):
        return {"center": self.center, "fit_lengths": list(self.fit_lengths)}

    def load_state_dict(self, state):
        if set(state) != {"center", "fit_lengths"}:
            raise ValueError(f"center: not a FakeForecaster state ({sorted(state)})")
        self.center, self.fit_lengths = state["center"], list(state["fit_lengths"])
        return self

    def predict(self, context, levels=None, start_index=0):
        levels = np.asarray(
            LEVELS if levels is None else levels, dtype=np.float64
        )
        offsets = (levels - 0.5) * 2.0 * self.spread
        values = self.center + np.tile(offsets[:, None], (1, self.horizon))
        return QuantileForecast(levels=levels, values=values)


class BadForecaster(FakeForecaster):
    """Fits to a fixed absurd level — the injectable bad candidate."""

    def __init__(self, horizon: int = 4, level: float = 1000.0):
        super().__init__(horizon=horizon)
        self.center = level

    def fit(self, series):
        return self


class FakePlanner:
    """Forecaster-backed planner double exposing ``.forecaster`` to swap."""

    name = "fake-planner"

    def __init__(self, forecaster, threshold: float = THRESHOLD):
        self.forecaster = forecaster
        self.threshold = threshold
        self.quantile_levels = LEVELS

    def plan(self, context, start_index=0):
        forecast = self.forecaster.predict(
            np.asarray(context, dtype=np.float64),
            levels=np.asarray(self.quantile_levels),
            start_index=start_index,
        )
        return ScalingPlan(
            nodes=required_nodes(forecast.values[-1], self.threshold),
            threshold=self.threshold,
            strategy=self.name,
            quantile_levels=(self.quantile_levels[-1],),
            metadata={
                "forecast_levels": forecast.levels,
                "forecast_values": forecast.values,
            },
        )


def make_runtime(
    forecaster,
    *,
    context: int = 8,
    horizon: int = 4,
    window: int = 10,
    rules: "tuple[str, ...]" = (),
    replan_every: int = 4,
    start_tick: int = 0,
    record_provenance: bool = False,
) -> AutoscalingRuntime:
    monitor = ModelHealthMonitor(
        window=window,
        alerts=AlertEngine([parse_rule(r) for r in rules]) if rules else None,
    )
    return AutoscalingRuntime(
        planner=FakePlanner(forecaster),
        context_length=context,
        horizon=horizon,
        threshold=THRESHOLD,
        replan_every=replan_every,
        start_tick=start_tick,
        monitor=monitor,
        record_provenance=record_provenance,
    )


def drive(runtime, manager, values):
    """Step the runtime over ``values``, feeding the manager per tick."""
    results = []
    for value in values:
        result = runtime.step(float(value))
        manager.on_tick(result.tick, result.observed, result.planned)
        results.append(result)
    return results
