"""ARIMA(p, d, q) with residual-based quantile forecasts.

The paper's statistical baseline: "Quantile forecasts can be enabled by
incorporating residuals to capture the uncertainty of the forecasts"
(Section IV-A2).  Fitting uses the Hannan–Rissanen two-stage procedure —
a long autoregression estimates the innovations, then AR and MA
coefficients are estimated jointly by least squares on lagged values and
lagged innovations.  Forecast variance grows with horizon through the
psi-weight (MA(inf)) expansion, and quantiles are Gaussian around the
point forecast.
"""

from __future__ import annotations

import numpy as np

from ..distributions.gaussian import ndtri
from ..nn.serialization import _encode_value
from .base import Forecaster, QuantileForecast, _read_state

__all__ = ["ARIMAForecaster"]


class ARIMAForecaster(Forecaster):
    """ARIMA via Hannan–Rissanen estimation.

    Parameters
    ----------
    order:
        (p, d, q) — AR order, differencing order, MA order.
    horizon:
        Forecast length.
    long_ar_order:
        Order of the stage-1 long autoregression; default scales with p+q.
    """

    def __init__(
        self,
        horizon: int,
        order: tuple[int, int, int] = (3, 1, 2),
        long_ar_order: int | None = None,
    ) -> None:
        p, d, q = order
        if p < 0 or d < 0 or q < 0 or (p == 0 and q == 0):
            raise ValueError(f"invalid ARIMA order {order}")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = horizon
        self.p, self.d, self.q = p, d, q
        self.long_ar_order = long_ar_order or max(10, 2 * (p + q))
        self.ar_coef = np.zeros(p)
        self.ma_coef = np.zeros(q)
        self.intercept = 0.0
        self.sigma = 1.0

    # ------------------------------------------------------------------
    def fit(self, series: np.ndarray) -> "ARIMAForecaster":
        series = np.asarray(series, dtype=np.float64)
        worked = np.diff(series, n=self.d) if self.d > 0 else series.copy()
        min_len = self.long_ar_order + max(self.p, self.q) + 10
        if len(worked) < min_len:
            raise ValueError(f"need at least {min_len} points after differencing")

        innovations = self._stage1_innovations(worked)
        self._stage2_regression(worked, innovations)
        self._estimate_sigma(worked)
        self._fitted = True
        return self

    def state_dict(self) -> dict:
        """The fitted coefficients (see :class:`Forecaster`, persistence)."""
        self._require_fitted()
        names = ("ar_coef", "ma_coef", "intercept", "sigma")
        return {name: _encode_value(getattr(self, name)) for name in names}

    def load_state_dict(self, state: dict) -> "ARIMAForecaster":
        spec = {"ar_coef": [self.p], "ma_coef": [self.q], "intercept": float, "sigma": float}
        for name, value in _read_state(state, spec).items():
            setattr(self, name, value)
        self._fitted = True
        return self

    def _stage1_innovations(self, x: np.ndarray) -> np.ndarray:
        """Long-AR fit; returns innovation estimates aligned with ``x``."""
        m = self.long_ar_order
        rows = np.column_stack([x[m - k - 1 : len(x) - k - 1] for k in range(m)])
        design = np.column_stack([np.ones(len(rows)), rows])
        target = x[m:]
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        fitted = design @ coef
        innovations = np.zeros_like(x)
        innovations[m:] = target - fitted
        return innovations

    def _stage2_regression(self, x: np.ndarray, innovations: np.ndarray) -> None:
        """Joint LS regression of x_t on p lags of x and q lags of innovations."""
        offset = max(self.p, self.q, self.long_ar_order)
        columns = [np.ones(len(x) - offset)]
        for k in range(1, self.p + 1):
            columns.append(x[offset - k : len(x) - k])
        for k in range(1, self.q + 1):
            columns.append(innovations[offset - k : len(x) - k])
        design = np.column_stack(columns)
        target = x[offset:]
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        self.intercept = float(coef[0])
        self.ar_coef = coef[1 : 1 + self.p]
        self.ma_coef = coef[1 + self.p :]

    def _estimate_sigma(self, x: np.ndarray) -> None:
        """One-step in-sample residual std (the innovation scale)."""
        residuals = self._one_step_residuals(x)
        self.sigma = float(residuals.std()) if len(residuals) else 1.0
        if self.sigma < 1e-12:
            self.sigma = 1e-12

    def _one_step_residuals(self, x: np.ndarray) -> np.ndarray:
        offset = max(self.p, self.q)
        eps = np.zeros(len(x))
        residuals = []
        for t in range(offset, len(x)):
            ar_part = sum(self.ar_coef[k] * x[t - k - 1] for k in range(self.p))
            ma_part = sum(self.ma_coef[k] * eps[t - k - 1] for k in range(self.q))
            prediction = self.intercept + ar_part + ma_part
            eps[t] = x[t] - prediction
            residuals.append(eps[t])
        return np.asarray(residuals)

    # ------------------------------------------------------------------
    def psi_weights(self, count: int) -> np.ndarray:
        """MA(inf) weights of the fitted ARMA: psi_0 = 1, recursive after.

        Forecast error variance at lead h is sigma^2 * sum_{j<h} psi_j^2
        (before un-differencing).
        """
        psi = np.zeros(count)
        psi[0] = 1.0
        for j in range(1, count):
            value = self.ma_coef[j - 1] if j - 1 < self.q else 0.0
            for k in range(1, min(j, self.p) + 1):
                value += self.ar_coef[k - 1] * psi[j - k]
            psi[j] = value
        return psi

    def predict(
        self,
        context: np.ndarray,
        levels: tuple[float, ...] | None = None,
        start_index: int = 0,
    ) -> QuantileForecast:
        """ARMA recursion + Gaussian psi-weight fan.

        ``levels=None`` serves :attr:`default_levels`; any level in
        (0, 1) is exact (parametric).  ``start_index`` is ignored —
        ARIMA carries no calendar features.
        """
        self._require_fitted()
        context = np.asarray(context, dtype=np.float64)
        if len(context) < self.d + max(self.p, self.q) + self.long_ar_order:
            raise ValueError("context too short for the fitted orders")

        worked = np.diff(context, n=self.d) if self.d > 0 else context.copy()
        eps_history = self._recent_innovations(worked)

        # Iterate the ARMA recursion forward; future innovations are zero.
        values = list(worked)
        eps = list(eps_history)
        forecasts = []
        for _ in range(self.horizon):
            ar_part = sum(self.ar_coef[k] * values[-k - 1] for k in range(self.p))
            ma_part = sum(
                self.ma_coef[k] * eps[-k - 1] for k in range(self.q) if len(eps) > k
            )
            step = self.intercept + ar_part + ma_part
            forecasts.append(step)
            values.append(step)
            eps.append(0.0)
        forecasts = np.asarray(forecasts)

        point, spread = self._undifference(context, forecasts)
        levels = self._resolve_levels(levels)
        quantiles = point + ndtri(levels)[:, None] * spread
        return QuantileForecast(levels=np.array(levels), values=quantiles, mean=point)

    def _recent_innovations(self, worked: np.ndarray) -> np.ndarray:
        """Innovations over the context window (needed by the MA part)."""
        if self.q == 0:
            return np.zeros(0)
        return self._one_step_residuals(worked)[-max(self.q, 1) :]

    def _undifference(
        self, context: np.ndarray, forecasts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate differenced forecasts back; propagate psi-based spread."""
        psi = self.psi_weights(self.horizon)
        if self.d == 0:
            spread = self.sigma * np.sqrt(np.cumsum(psi**2))
            return forecasts, spread
        # Cumulative re-integration (applied d times).
        point = forecasts.copy()
        for _ in range(self.d):
            point = np.cumsum(point)
        anchor = context[-1]
        if self.d == 1:
            point = anchor + point
        else:
            # General d: rebuild by repeatedly integrating with the last
            # observed values of each difference order as anchors.
            point = self._integrate_general(context, forecasts)
        # psi weights of the integrated process: cumulative sums of psi.
        psi_integrated = psi.copy()
        for _ in range(self.d):
            psi_integrated = np.cumsum(psi_integrated)
        spread = self.sigma * np.sqrt(np.cumsum(psi_integrated**2))
        return point, spread

    def _integrate_general(self, context: np.ndarray, forecasts: np.ndarray) -> np.ndarray:
        """Undifference for arbitrary d by replaying the anchor chain."""
        levels = [context]
        for _ in range(self.d):
            levels.append(np.diff(levels[-1]))
        # levels[k] is the k-times differenced context
        current = forecasts
        for k in range(self.d, 0, -1):
            anchor = levels[k - 1][-1]
            current = anchor + np.cumsum(current)
        return current
