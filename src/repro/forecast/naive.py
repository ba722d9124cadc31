"""Naive baseline: the seasonal-naive quantile forecaster.

Not evaluated in the paper's tables, but indispensable as a sanity floor —
any learned model that loses to seasonal-naive on a seasonal trace is
broken, and the test suite uses exactly that check.
"""

from __future__ import annotations

import numpy as np

from ..nn.serialization import _encode_value
from ..traces.synthetic import STEPS_PER_DAY
from .base import Forecaster, QuantileForecast, _read_state

__all__ = ["SeasonalNaiveForecaster"]


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
