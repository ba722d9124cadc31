"""The forecasters' training losses composed on the autograd tape.

Reference implementations of the closed-form loss kernels in
:mod:`repro.nn.fastgrad` (which replicate these term for term):

* negative log-likelihood under a parametric distribution (MLP's Gaussian
  head, DeepAR's Student-t head),
* the quantile ("pinball") loss of Eq. 1-2 for models that emit a
  pre-specified grid of quantiles (TFT, the grid-head models), and
* the QB5000 LSTM's mean squared error.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["mse_loss", "gaussian_nll", "student_t_nll", "quantile_loss"]


def mse_loss(prediction: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def gaussian_nll(mean: Tensor, std: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean negative log-likelihood of ``target`` under N(mean, std^2)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    var = std * std
    log_term = var.log() * 0.5
    quad = ((target - mean) * (target - mean)) / (var * 2.0)
    return (log_term + quad).mean() + 0.5 * np.log(2.0 * np.pi)


def student_t_nll(
    mean: Tensor, scale: Tensor, df: Tensor, target: np.ndarray | Tensor
) -> Tensor:
    """Mean negative log-likelihood under a location-scale Student-t.

    The density is
    ``Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(nu pi) s) * (1 + z^2/nu)^-((nu+1)/2)``
    with ``z = (x - mu)/s``.  The log-Gamma terms depend only on ``df``;
    we use a differentiable Stirling-series approximation of log Gamma so
    the degrees of freedom can be learned end-to-end, as DeepAR does.
    """
    target = target if isinstance(target, Tensor) else Tensor(target)
    z = (target - mean) / scale
    half = Tensor(0.5)
    nu = df
    log_norm = (
        _log_gamma((nu + 1.0) * half)
        - _log_gamma(nu * half)
        - (nu * np.pi).log() * 0.5
        - scale.log()
    )
    log_kernel = ((z * z) / nu + 1.0).log() * ((nu + 1.0) * (-0.5))
    return -(log_norm + log_kernel).mean()


def _log_gamma(x: Tensor) -> Tensor:
    """Differentiable log Gamma via the Lanczos-free shifted Stirling series.

    Accurate to ~1e-7 for x >= 0.5 after two recurrence shifts, which covers
    the df/2 values (df >= 1) produced by a softplus head.
    """
    # Shift x up by 2 using log Gamma(x) = log Gamma(x+1) - log x.
    shifted = x + 2.0
    correction = x.log() + (x + 1.0).log()
    series = (
        (shifted - 0.5) * shifted.log()
        - shifted
        + 0.5 * np.log(2.0 * np.pi)
        + 1.0 / (shifted * 12.0)
        - 1.0 / (shifted * shifted * shifted * 360.0)
    )
    return series - correction


def quantile_loss(
    predictions: Tensor, target: np.ndarray | Tensor, quantiles: list[float]
) -> Tensor:
    """Total pinball loss of Eq. 2, summed over a grid of quantile levels.

    Per level, Eq. 1: rho_tau(y, yhat) = (tau - I[y < yhat])(yhat - y),
    averaged over the elements.  ``predictions`` has a trailing axis of
    size ``len(quantiles)``; the target is broadcast against it.
    """
    target = target if isinstance(target, Tensor) else Tensor(target)
    zero = Tensor(np.zeros(1))
    total: Tensor | None = None
    for index, tau in enumerate(quantiles):
        if not 0.0 < tau < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {tau}")
        diff = target - predictions[..., index]  # y - yhat
        loss = (diff.maximum(zero) * tau + (-diff).maximum(zero) * (1.0 - tau)).mean()
        total = loss if total is None else total + loss
    assert total is not None, "quantiles must be non-empty"
    return total
