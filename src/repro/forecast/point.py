"""Point-forecast adapters and the CloudScale-style padding enhancement.

The paper compares against two point-forecast scalers:

* *TFT-point* — "we train TFT to exclusively output the 0.5 quantile,
  effectively serving as a point forecasting model" (Section IV-A2);
* *-padding* variants — the enhancement of Shen et al. (CloudScale,
  SoCC 2011): "adding a small additional value to future predictions
  based on past underestimation errors".
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .base import PointForecaster
from .neural import TrainingConfig
from .tft import TFTForecaster

__all__ = ["TFTPointForecaster", "PaddedPointForecaster"]


class TFTPointForecaster(PointForecaster):
    """TFT restricted to the 0.5 quantile — a pure point forecaster.

    The architecture and training are identical to the quantile TFT; only
    the output grid shrinks to {0.5}, making the pinball loss equivalent
    to (half) the MAE.
    """

    def __init__(
        self,
        context_length: int,
        horizon: int,
        d_model: int = 32,
        num_heads: int = 4,
        config: TrainingConfig | None = None,
    ) -> None:
        self._tft = TFTForecaster(
            context_length,
            horizon,
            quantile_levels=(0.5,),
            d_model=d_model,
            num_heads=num_heads,
            config=config,
        )

    @property
    def context_length(self) -> int:
        return self._tft.context_length

    @property
    def horizon(self) -> int:
        return self._tft.horizon

    def fit(self, series: np.ndarray) -> "TFTPointForecaster":
        self._tft.fit(series)
        self._fitted = True
        return self

    def predict_point(self, context: np.ndarray, start_index: int = 0) -> np.ndarray:
        self._require_fitted()
        return self._tft.predict(context, levels=(0.5,), start_index=start_index).values[0]


class PaddedPointForecaster(PointForecaster):
    """Point forecaster + additive padding learned from past underestimation.

    The padding added to a forecast is a high percentile of the base
    forecaster's recent *underestimation* errors ``max(0, actual -
    forecast)``, so sustained under-forecasting raises the safety margin
    while overestimation leaves it untouched — the CloudScale recipe.

    The errors come from the forecasts themselves: the context of each
    forecast holds the actual workloads of the steps the previous one
    covered, as far as they have been observed, so :meth:`predict_point`
    first records the unpadded previous forecast's errors on those steps
    and then pads.  No feedback hook is needed, and the padding learns
    inside any loop that plans from it.  The wrapper is fitted exactly
    when its base is.

    Parameters
    ----------
    window:
        Number of recent per-step errors remembered.
    percentile:
        Which percentile of remembered underestimation errors to add
        (1.0 = the maximum error, the most conservative choice).
    """

    def __init__(
        self, base: PointForecaster, window: int = 288, percentile: float = 0.95
    ) -> None:
        if not 0.0 < percentile <= 1.0:
            raise ValueError("percentile must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.base = base
        self.window = window
        self.percentile = percentile
        self._errors: deque[float] = deque(maxlen=window)
        # (absolute index of its first step, the unpadded base forecast)
        self._last: tuple[int, np.ndarray] | None = None

    @property
    def _fitted(self) -> bool:
        return self.base._fitted

    def fit(self, series: np.ndarray) -> "PaddedPointForecaster":
        self.base.fit(series)
        return self

    @property
    def padding(self) -> float:
        """Current additive safety margin."""
        if not self._errors:
            return 0.0
        return float(np.quantile(np.asarray(self._errors), self.percentile))

    def predict_point(self, context: np.ndarray, start_index: int = 0) -> np.ndarray:
        """Record the previous forecast's errors on ``context``, then pad.

        ``start_index`` is the absolute index of ``context[0]``; it is
        how the steps of the previous forecast are found in the context.
        """
        self._require_fitted()
        context = np.asarray(context, dtype=np.float64)
        end = start_index + len(context)
        if self._last is not None:
            first, forecast = self._last
            lo, hi = max(first, start_index), min(first + len(forecast), end)
            if lo < hi:
                observed = context[lo - start_index : hi - start_index]
                errors = np.maximum(observed - forecast[lo - first : hi - first], 0.0)
                self._errors.extend(errors.tolist())
        base = np.asarray(self.base.predict_point(context, start_index), dtype=np.float64)
        self._last = (end, base)
        return base + self.padding
