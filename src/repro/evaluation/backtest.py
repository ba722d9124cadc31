"""Rolling-origin backtesting for quantile forecasters.

The paper's evaluation protocol — walk the test split in decision
windows, forecast each from the preceding context, score everything
together — is what every user of this library ends up writing.  This
module makes it a first-class API:

```python
result = backtest(forecaster, test_values, context_length=72, horizon=72,
                  levels=(0.1, ..., 0.9), series_start_index=len(train))
result.report("TFT", "alibaba")      # a Table-I style ForecastReport
result.coverage(0.9)                 # empirical coverage of one level
result.forecasts[i], result.actuals[i]
```
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..forecast.base import Forecaster, QuantileForecast
from .metrics import coverage as coverage_metric
from .metrics import mean_weighted_quantile_loss, mse, weighted_quantile_loss
from .report import ForecastReport, evaluate_quantile_forecast

__all__ = ["BacktestResult", "backtest"]

# Base seed for per-window sampler reseeding; combined with the window's
# absolute decision point so draws depend only on (seed, window), never
# on which windows were forecast before it.
_WINDOW_SEED = 0x5EED


@dataclass
class BacktestResult:
    """All forecasts and actuals from a rolling-origin evaluation."""

    levels: tuple[float, ...]
    points: list[int]
    forecasts: list[QuantileForecast] = field(default_factory=list)
    actuals: list[np.ndarray] = field(default_factory=list)
    # Merged-array cache: report() + mean_wql() + per-level coverage()
    # all reconcatenate O(windows * horizon) arrays; memoise them, keyed
    # on window count so appending windows invalidates naturally.
    _merged: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_windows(self) -> int:
        return len(self.forecasts)

    def _merged_cache(self) -> dict:
        if self._merged.get("windows") != len(self.forecasts):
            self._merged = {"windows": len(self.forecasts)}
        return self._merged

    @property
    def merged_actual(self) -> np.ndarray:
        """Actuals concatenated across windows (cached)."""
        cache = self._merged_cache()
        if "actual" not in cache:
            cache["actual"] = np.concatenate(self.actuals)
        return cache["actual"]

    def merged_level(self, tau: float) -> np.ndarray:
        """One quantile level's forecasts, concatenated across windows (cached)."""
        cache = self._merged_cache()
        key = ("level", float(tau))
        if key not in cache:
            cache[key] = np.concatenate([fc.at(tau) for fc in self.forecasts])
        return cache[key]

    def merged_point(self) -> np.ndarray:
        """Point forecasts concatenated across windows (cached)."""
        cache = self._merged_cache()
        if "point" not in cache:
            cache["point"] = np.concatenate([fc.point for fc in self.forecasts])
        return cache["point"]

    # -- metrics ---------------------------------------------------------
    def coverage(self, tau: float) -> float:
        """Empirical coverage of the tau-quantile across all steps."""
        return coverage_metric(self.merged_actual, self.merged_level(tau))

    def wql(self, tau: float) -> float:
        """Weighted quantile loss at one level."""
        return weighted_quantile_loss(self.merged_actual, self.merged_level(tau), tau)

    def mean_wql(self, levels: tuple[float, ...] | None = None) -> float:
        """mean_wQL over ``levels`` (default: the backtest's grid)."""
        levels = levels if levels is not None else self.levels
        return mean_weighted_quantile_loss(
            self.merged_actual, {tau: self.merged_level(tau) for tau in levels}
        )

    def mse(self) -> float:
        """MSE of the point forecast."""
        return mse(self.merged_actual, self.merged_point())

    def report(self, model: str, dataset: str) -> ForecastReport:
        """A Table-I style report over all windows."""
        return evaluate_quantile_forecast(
            model,
            dataset,
            self.merged_actual,
            {tau: self.merged_level(tau) for tau in self.levels},
            point_forecast=self.merged_point(),
        )


def backtest(
    forecaster: Forecaster,
    values: np.ndarray,
    context_length: int,
    horizon: int,
    levels: tuple[float, ...],
    stride: int | None = None,
    series_start_index: int = 0,
    monitor=None,
) -> BacktestResult:
    """Rolling-origin evaluation of a fitted forecaster.

    Parameters
    ----------
    values:
        The evaluation series (e.g. a test split).  The forecaster must
        already be fitted; no window of ``values`` is used for training.
    stride:
        Distance between decision points; default ``horizon``
        (back-to-back windows, the paper's protocol).
    series_start_index:
        Absolute index of ``values[0]`` in the original trace — keeps
        calendar features phase-aligned when ``values`` is a split.
    monitor:
        Optional :class:`~repro.obs.monitor.ModelHealthMonitor`: every
        evaluated (forecast, actual) pair is streamed into it, so the
        backtest doubles as an offline calibration/drift analysis.

    A sampling forecaster is reseeded before every decision window from
    ``(seed, window)``, so a window's draws depend on the window alone.
    """
    from ..core.evaluation import decision_points
    from ..obs import get_registry

    values = np.asarray(values, dtype=np.float64)
    points = decision_points(len(values), context_length, horizon, stride)
    result = BacktestResult(levels=tuple(sorted(levels)), points=points)
    metrics = get_registry()
    model = type(forecaster).__name__
    reseed = getattr(forecaster, "reseed_sampler", None)
    with metrics.span("backtest", model=model):
        for point in points:
            if reseed is not None:
                reseed((_WINDOW_SEED, series_start_index + point))
            with metrics.span("predict"):
                forecast = forecaster.predict(
                    values[point - context_length : point],
                    levels=result.levels,
                    start_index=series_start_index + point - context_length,
                )
            metrics.counter("backtest.windows", model=model).inc()
            result.forecasts.append(forecast)
            actual = values[point : point + horizon]
            result.actuals.append(actual)
            if monitor is not None:
                monitor.observe_forecast(
                    forecast, actual, start_index=series_start_index + point
                )
    return result
