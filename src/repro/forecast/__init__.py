"""Probabilistic workload forecasting (paper Section III-B).

Two methodological families are implemented, matching Figure 3:

* parametric-distribution models — :class:`MLPForecaster` (Gaussian) and
  :class:`DeepARForecaster` (Student-t, sampled quantiles);
* quantile-grid models — :class:`TFTForecaster` (pinball loss over a
  pre-specified grid).

Plus the evaluation baselines: :class:`ARIMAForecaster`,
:class:`QB5000Forecaster`, :class:`TFTPointForecaster`, the
:class:`PaddedPointForecaster` enhancement, and naive floors.
"""

from .arima import ARIMAForecaster
from .base import DEFAULT_QUANTILE_LEVELS, Forecaster, PointForecaster, QuantileForecast
from .deepar import DeepARForecaster
from .features import NUM_CALENDAR_FEATURES, calendar_features
from .mlp import MLPForecaster
from .naive import PersistenceForecaster, SeasonalNaiveForecaster
from .neural import NeuralForecaster, TrainingConfig
from .point import MedianPointAdapter, PaddedPointForecaster, TFTPointForecaster
from .qb5000 import KernelRegressionForecaster, LinearRegressionForecaster, QB5000Forecaster
from .quantile_regression import MLPQuantileForecaster
from .tft import TFTForecaster

__all__ = [
    "QuantileForecast",
    "Forecaster",
    "PointForecaster",
    "DEFAULT_QUANTILE_LEVELS",
    "TrainingConfig",
    "NeuralForecaster",
    "ARIMAForecaster",
    "MLPForecaster",
    "DeepARForecaster",
    "TFTForecaster",
    "QB5000Forecaster",
    "LinearRegressionForecaster",
    "KernelRegressionForecaster",
    "MLPQuantileForecaster",
    "TFTPointForecaster",
    "MedianPointAdapter",
    "PaddedPointForecaster",
    "SeasonalNaiveForecaster",
    "PersistenceForecaster",
    "calendar_features",
    "NUM_CALENDAR_FEATURES",
]
