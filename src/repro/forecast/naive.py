"""Naive baselines: persistence and seasonal-naive quantile forecasters.

Not evaluated in the paper's tables, but indispensable as sanity floors —
any learned model that loses to seasonal-naive on a seasonal trace is
broken, and the test suite uses exactly that check.
"""

from __future__ import annotations

import numpy as np

from ..distributions.gaussian import ndtri
from ..nn.serialization import _encode_value
from ..traces.synthetic import STEPS_PER_DAY
from .base import Forecaster, QuantileForecast, _read_state

__all__ = ["SeasonalNaiveForecaster", "PersistenceForecaster"]


class SeasonalNaiveForecaster(Forecaster):
    """Repeat the value one season ago; quantiles from seasonal residuals.

    fit() collects the distribution of seasonal differences
    ``w_t - w_{t-s}``; predict() adds the residual quantiles to the
    repeated seasonal values, giving a cheap but honestly calibrated
    probabilistic forecast.
    """

    def __init__(self, horizon: int, season: int = STEPS_PER_DAY) -> None:
        if horizon < 1 or season < 1:
            raise ValueError("horizon and season must be >= 1")
        self.horizon = horizon
        self.season = season
        self._residual_quantiles: dict[float, float] = {}
        self._residuals: np.ndarray | None = None

    def fit(self, series: np.ndarray) -> "SeasonalNaiveForecaster":
        series = np.asarray(series, dtype=np.float64)
        if len(series) <= self.season:
            raise ValueError(
                f"series of length {len(series)} shorter than season {self.season}"
            )
        self._residuals = series[self.season :] - series[: -self.season]
        self._fitted = True
        return self

    def state_dict(self) -> dict:
        """The fitted seasonal residuals (see :class:`Forecaster`, persistence)."""
        self._require_fitted()
        return {"residuals": _encode_value(self._residuals)}

    def load_state_dict(self, state: dict) -> "SeasonalNaiveForecaster":
        self._residuals = _read_state(state, {"residuals": [-1]})["residuals"]
        self._fitted = True
        return self

    def predict(
        self,
        context: np.ndarray,
        levels: tuple[float, ...] | None = None,
        start_index: int = 0,
    ) -> QuantileForecast:
        """Seasonal repeat + residual quantiles.

        ``levels=None`` serves :attr:`default_levels` (the paper's
        grid); ``start_index`` is ignored — alignment comes from the
        context tail, not calendar features.
        """
        self._require_fitted()
        context = np.asarray(context, dtype=np.float64)
        if len(context) < self.season:
            raise ValueError(
                f"context of length {len(context)} shorter than season {self.season}"
            )
        base = np.array(
            [context[len(context) - self.season + (h % self.season)] for h in range(self.horizon)]
        )
        levels = self._resolve_levels(levels)
        offsets = np.quantile(self._residuals, levels)
        values = base[None, :] + offsets[:, None]
        return QuantileForecast(levels=np.array(levels), values=values, mean=base)


class PersistenceForecaster(Forecaster):
    """Repeat the last observed value; quantiles from one-step diffs.

    Uncertainty widens with horizon like a random walk (sqrt scaling).
    """

    def __init__(self, horizon: int) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = horizon
        self._diff_std: float = 0.0

    def fit(self, series: np.ndarray) -> "PersistenceForecaster":
        series = np.asarray(series, dtype=np.float64)
        if len(series) < 2:
            raise ValueError("need at least 2 points")
        self._diff_std = float(np.diff(series).std())
        self._fitted = True
        return self

    def predict(
        self,
        context: np.ndarray,
        levels: tuple[float, ...] | None = None,
        start_index: int = 0,
    ) -> QuantileForecast:
        """Random-walk fan around the last value.

        ``levels=None`` serves :attr:`default_levels`; any level in
        (0, 1) is exact (parametric).  ``start_index`` is ignored —
        persistence has no calendar features.
        """
        self._require_fitted()
        last = float(np.asarray(context)[-1])
        levels = self._resolve_levels(levels)
        steps = np.arange(1, self.horizon + 1)
        spread = self._diff_std * np.sqrt(steps)
        values = last + ndtri(levels)[:, None] * spread
        return QuantileForecast(
            levels=np.array(levels), values=values, mean=np.full(self.horizon, last)
        )
