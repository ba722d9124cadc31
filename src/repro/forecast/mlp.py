"""Probabilistic MLP forecaster (paper Section IV-A2, "MLP" baseline).

"A simple feedforward neural network that generates probabilistic
forecasts by outputting the parameters of a selected distribution."
The network maps the normalised context window to a Gaussian mean and a
softplus-positive sigma per horizon step and trains on the negative
log-likelihood — the textbook instance of the paper's
"learn parametric distributions" methodology (Figure 3a).
"""

from __future__ import annotations

import numpy as np

from ..distributions import Gaussian
from ..nn import Linear, Module, fastgrad, fastpath
from .base import QuantileForecast
from .neural import NeuralForecaster, TrainingConfig

__all__ = ["MLPForecaster"]


class MLPBody(Module):
    """Two hidden ReLU layers over the context window.

    The body shared by the parametric network below and the grid-head
    twin in :mod:`repro.forecast.quantile_regression`; subclasses add
    their heads.
    """

    def __init__(self, context_length: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.fc1 = Linear(context_length, hidden_size, rng)
        self.fc2 = Linear(hidden_size, hidden_size, rng)

    def body_forward(self, context: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """fc1 -> relu -> fc2 -> relu; a ``cache`` dict receives the
        activations :meth:`body_backward` differentiates through."""
        h1_pre = self.fc1.fast_forward(context)
        h1 = fastpath.relu(h1_pre)
        h2_pre = self.fc2.fast_forward(h1)
        h2 = fastpath.relu(h2_pre)
        if cache is not None:
            cache.update(x=context, h1_pre=h1_pre, h1=h1, h2_pre=h2_pre, h2=h2)
        return h2

    def body_backward(self, cache: dict, dh2: np.ndarray) -> None:
        """Accumulate the fc1 / fc2 gradients given the loss gradient at ``h2``."""
        dh2_pre = fastgrad.relu_backward(cache["h2_pre"], dh2)
        dh1 = self.fc2.backward(cache["h1"], dh2_pre)
        dh1_pre = fastgrad.relu_backward(cache["h1_pre"], dh1)
        self.fc1.backward(cache["x"], dh1_pre, need_dx=False)


class _MLPNetwork(MLPBody):
    """Two hidden layers -> (mu, sigma) heads over the full horizon."""

    def __init__(
        self, context_length: int, horizon: int, hidden_size: int, rng: np.random.Generator
    ) -> None:
        super().__init__(context_length, hidden_size, rng)
        self.mu_head = Linear(hidden_size, horizon, rng)
        self.sigma_head = Linear(hidden_size, horizon, rng)

    def fast_forward(
        self, context: np.ndarray, cache: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Context (B, T) -> Gaussian ``(mu, sigma)``, each (B, H)."""
        h2 = self.body_forward(context, cache)
        mu = self.mu_head.fast_forward(h2)
        sigma_pre = self.sigma_head.fast_forward(h2)
        if cache is not None:
            cache["sigma_pre"] = sigma_pre
        return mu, fastpath.softplus(sigma_pre) + 1e-4

    def backward(self, cache: dict, dmu: np.ndarray, dsigma: np.ndarray) -> None:
        """Closed-form backward of a cached :meth:`fast_forward`."""
        dsigma_pre = fastgrad.softplus_backward(cache["sigma_pre"], dsigma)
        dh2 = self.mu_head.backward(cache["h2"], dmu)
        dh2 += self.sigma_head.backward(cache["h2"], dsigma_pre)
        self.body_backward(cache, dh2)


class MLPForecaster(NeuralForecaster):
    """Gaussian-output feed-forward forecaster.

    Quantiles come straight from the learned distribution's inverse CDF,
    so any level in (0, 1) can be queried after training — the
    flexibility advantage the paper credits to parametric methods.
    """

    def __init__(
        self,
        context_length: int,
        horizon: int,
        hidden_size: int = 64,
        config: TrainingConfig | None = None,
    ) -> None:
        super().__init__(context_length, horizon, config)
        self.hidden_size = hidden_size

    def _build(self, rng: np.random.Generator) -> Module:
        return _MLPNetwork(self.context_length, self.horizon, self.hidden_size, rng)

    def _forward_loss(
        self,
        context: np.ndarray,
        horizon: np.ndarray,
        start_indices: np.ndarray,
        cache: dict | None = None,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Gaussian NLL of the horizon under the network's ``(mu, sigma)``."""
        assert self.network is not None
        mu, sigma = self.network.fast_forward(np.ascontiguousarray(context), cache)
        return fastgrad.gaussian_nll_grads(mu, sigma, horizon)

    def predict(
        self,
        context: np.ndarray,
        levels: tuple[float, ...] | None = None,
        start_index: int = 0,
    ) -> QuantileForecast:
        """Gaussian-head quantiles.

        ``levels=None`` serves :attr:`default_levels`; any level in
        (0, 1) is exact (parametric).  ``start_index`` is ignored — the
        MLP consumes only the raw context window, no calendar features.
        """
        self._require_fitted()
        assert self.network is not None
        context = np.asarray(context, dtype=np.float64)
        if len(context) != self.context_length:
            raise ValueError(
                f"context must have length {self.context_length}, got {len(context)}"
            )
        mu, sigma = self.network.fast_forward(self.scaler.transform(context)[None, :])
        # Map the Gaussian back to workload units: affine transforms of a
        # Gaussian stay Gaussian.
        mean = self.scaler.inverse_transform(mu[0])
        std = sigma[0] * self.scaler.std_
        distribution = Gaussian(mean, std)
        levels = self._resolve_levels(levels)
        values = distribution.quantiles(levels)
        return QuantileForecast(levels=np.array(levels), values=values, mean=mean)

    def predictive_distribution(self, context: np.ndarray) -> Gaussian:
        """The full per-step Gaussian (used for std-based uncertainty)."""
        self._require_fitted()
        assert self.network is not None
        normalised = self.scaler.transform(np.asarray(context, dtype=np.float64))[None, :]
        mu, sigma = self.network.fast_forward(normalised)
        return Gaussian(self.scaler.inverse_transform(mu[0]), sigma[0] * self.scaler.std_)
