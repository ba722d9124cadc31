"""Probabilistic workload forecasting (paper Section III-B).

Two methodological families are implemented, matching Figure 3:

* parametric-distribution models — :class:`MLPForecaster` (Gaussian) and
  :class:`DeepARForecaster` (Student-t, sampled quantiles);
* quantile-grid models — :class:`TFTForecaster` (pinball loss over a
  pre-specified grid).

Plus the evaluation baselines: :class:`ARIMAForecaster`,
:class:`QB5000Forecaster`, :class:`TFTPointForecaster`, the
:class:`PaddedPointForecaster` enhancement, and the seasonal-naive floor.
"""

from .arima import ARIMAForecaster
from .base import Forecaster, PointForecaster, QuantileForecast
from .deepar import DeepARForecaster
from .features import NUM_CALENDAR_FEATURES
from .mlp import MLPForecaster
from .naive import SeasonalNaiveForecaster
from .neural import NeuralForecaster, TrainingConfig
from .point import PaddedPointForecaster, TFTPointForecaster
from .qb5000 import QB5000Forecaster
from .quantile_regression import MLPQuantileForecaster
from .tft import TFTForecaster

__all__ = [
    "QuantileForecast",
    "Forecaster",
    "PointForecaster",
    "TrainingConfig",
    "NeuralForecaster",
    "ARIMAForecaster",
    "MLPForecaster",
    "DeepARForecaster",
    "TFTForecaster",
    "QB5000Forecaster",
    "MLPQuantileForecaster",
    "TFTPointForecaster",
    "PaddedPointForecaster",
    "SeasonalNaiveForecaster",
    "NUM_CALENDAR_FEATURES",
]
