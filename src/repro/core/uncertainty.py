"""Forecast-uncertainty quantification (paper Eq. 8).

For quantile-grid forecasters the paper defines a per-step uncertainty

    U = sum_i (tau_i - I[w^tau_i < w^0.5]) * (w^0.5 - w^tau_i)

— pinball-shaped, but measured against the *median forecast* rather than
the realised target, so it is computable before the future arrives.
Wide, asymmetric quantile fans score high; tight fans score low.  Every
forecaster, parametric ones included, is scored this way, on the quantile
fan its ``predict`` returns.

Note on signs: as printed, the paper's Eq. 1 and Eq. 8 use
``(yhat - y)`` where the standard (non-negative) pinball loss uses
``(y - yhat)``; taken literally the formulas are non-positive.  We
implement the evidently intended non-negative form
``U = sum_i (tau_i - I[w^tau_i < w^0.5]) * (w^tau_i - w^0.5)``,
which is zero exactly when all quantiles collapse onto the median and
grows with the spread of the fan.
"""

from __future__ import annotations

import numpy as np

from ..forecast.base import QuantileForecast

__all__ = ["quantile_uncertainty"]


def quantile_uncertainty(forecast: QuantileForecast) -> np.ndarray:
    """Per-step uncertainty U of Eq. 8 from a quantile forecast.

    Returns an array of shape (horizon,).  Every level on the forecast's
    grid participates; the median (0.5 quantile, interpolated if not on
    the grid) is the reference.

    One ``(L, H)`` expression, summed over the levels in grid order: a
    running sum along axis 0 adds row after row, where ``sum(axis=0)``
    would pairwise-sum a single column (``H == 1``) and move the last
    bit.  Every term is >= +0, so no ``0 +`` start is needed.  The last
    row is copied out so a retained plan does not pin the whole buffer.
    """
    median = forecast.at(0.5)
    values = forecast.values
    terms = forecast.levels[:, None] - (values < median)
    terms *= values - median
    return np.cumsum(terms, axis=0)[-1].copy()
