"""Forecast-quality metrics from Section IV of the paper.

All functions here operate on plain numpy arrays — they evaluate finished
forecasts and never touch the autograd engine.  Conventions follow the
paper: a forecast array for a grid of quantile levels has shape
(num_levels, horizon) (or (num_levels, horizon, num_series)); the target
has shape (horizon,) (or (horizon, num_series)).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "quantile_loss",
    "weighted_quantile_loss",
    "mean_weighted_quantile_loss",
    "coverage",
    "mse",
]


def quantile_loss(target: np.ndarray, predicted: np.ndarray, tau: float) -> float:
    """Total quantile loss QL_tau of Eq. 2 (summed, not averaged).

    rho_tau(y, yhat) = (tau - I[y < yhat]) * (y - yhat), summed over all
    horizons and series.  (The paper's Eq. 1 prints the last factor as
    ``yhat - y``, which would make the loss non-positive; we use the
    standard non-negative orientation.)
    """
    _check_tau(tau)
    target = np.asarray(target, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    indicator = (target < predicted).astype(np.float64)
    return float(((tau - indicator) * (target - predicted)).sum())


def weighted_quantile_loss(target: np.ndarray, predicted: np.ndarray, tau: float) -> float:
    """wQL_[tau] = 2 * QL_tau / sum(|y|)  (Section IV-B1).

    The absolute value in the denominator guards against sign
    cancellation; workload metrics are non-negative so it is a no-op on
    real traces.
    """
    denominator = float(np.abs(np.asarray(target, dtype=np.float64)).sum())
    if denominator == 0.0:
        raise ValueError("target sums to zero; wQL undefined")
    return 2.0 * quantile_loss(target, predicted, tau) / denominator


def mean_weighted_quantile_loss(
    target: np.ndarray,
    quantile_forecasts: dict[float, np.ndarray],
) -> float:
    """mean_wQL: average of wQL over a set of prespecified quantile levels.

    Parameters
    ----------
    quantile_forecasts:
        Mapping tau -> forecast array at that level.
    """
    if not quantile_forecasts:
        raise ValueError("need at least one quantile level")
    losses = [
        weighted_quantile_loss(target, forecast, tau)
        for tau, forecast in sorted(quantile_forecasts.items())
    ]
    return float(np.mean(losses))


def coverage(target: np.ndarray, predicted: np.ndarray) -> float:
    """Fraction of steps where the quantile forecast covers the target.

    Coverage_[tau] measures how often the tau-quantile forecast is larger
    than the true value; a perfectly calibrated forecaster achieves
    Coverage_[tau] = tau.

    NaN targets (missing observations) compare as *not covered* — they
    lower coverage rather than poisoning it, which is the conservative
    choice for the monitors built on top of this function.  Empty
    targets raise.
    """
    target = np.asarray(target, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if target.size == 0:
        raise ValueError("empty target")
    return float((np.asarray(predicted) > target).mean())


def mse(target: np.ndarray, predicted: np.ndarray) -> float:
    """Mean squared error of a point forecast."""
    target = np.asarray(target, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    return float(((predicted - target) ** 2).mean())


def _check_tau(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {tau}")
