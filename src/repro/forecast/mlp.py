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
from ..nn import Linear, Module, Tensor, fastgrad, fastpath
from ..nn import functional as F
from .base import QuantileForecast
from .neural import NeuralForecaster, TrainingConfig

__all__ = ["MLPForecaster"]

_accumulate = fastgrad.accumulate_grad


class _MLPNetwork(Module):
    """Two hidden layers -> (mu, sigma) heads over the full horizon."""

    def __init__(
        self, context_length: int, horizon: int, hidden_size: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.fc1 = Linear(context_length, hidden_size, rng)
        self.fc2 = Linear(hidden_size, hidden_size, rng)
        self.mu_head = Linear(hidden_size, horizon, rng)
        self.sigma_head = Linear(hidden_size, horizon, rng)

    def forward(self, context: Tensor) -> tuple[Tensor, Tensor]:
        hidden = self.fc2(self.fc1(context).relu()).relu()
        mu = self.mu_head(hidden)
        sigma = self.sigma_head(hidden).softplus() + 1e-4
        return mu, sigma

    def fast_forward(
        self, context: np.ndarray, cache: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The same composition on raw arrays (bitwise-identical values).

        A ``cache`` dict receives the hidden layers and pre-activations
        :meth:`MLPForecaster._fastgrad_loss_backward` differentiates through.
        """
        h1_pre = self.fc1.fast_forward(context)
        h1 = fastpath.relu(h1_pre)
        h2_pre = self.fc2.fast_forward(h1)
        h2 = fastpath.relu(h2_pre)
        mu = self.mu_head.fast_forward(h2)
        sigma_pre = self.sigma_head.fast_forward(h2)
        if cache is not None:
            cache.update(h1_pre=h1_pre, h1=h1, h2_pre=h2_pre, h2=h2, sigma_pre=sigma_pre)
        return mu, fastpath.softplus(sigma_pre) + 1e-4


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

    def _loss(
        self, context: np.ndarray, horizon: np.ndarray, start_indices: np.ndarray
    ) -> Tensor:
        assert self.network is not None
        mu, sigma = self.network(Tensor(context))
        return F.gaussian_nll(mu, sigma, horizon)

    def _fastgrad_loss_backward(
        self, context: np.ndarray, horizon: np.ndarray, start_indices: np.ndarray
    ) -> float:
        """Analytic forward + backward through the two-layer MLP.

        The full chain (fc1 -> relu -> fc2 -> relu -> mu/sigma heads ->
        Gaussian NLL) has closed-form gradients; everything runs as a
        handful of dense matmuls on raw arrays and lands in
        ``param.grad``, bypassing the per-op tape entirely.
        """
        assert self.network is not None
        net = self.network
        x = np.ascontiguousarray(context)
        cache: dict = {}
        mu, sigma = net.fast_forward(x, cache)
        h1_pre, h1, h2_pre, h2 = (cache[k] for k in ("h1_pre", "h1", "h2_pre", "h2"))

        loss, dmu, dsigma = fastgrad.gaussian_nll_grads(mu, sigma, horizon)
        dsigma_pre = fastgrad.softplus_backward(cache["sigma_pre"], dsigma)

        dh2, dw_mu, db_mu = fastgrad.linear_backward(h2, net.mu_head.weight.data, dmu)
        _accumulate(net.mu_head.weight, dw_mu)
        _accumulate(net.mu_head.bias, db_mu)
        dh2_sigma, dw_sigma, db_sigma = fastgrad.linear_backward(
            h2, net.sigma_head.weight.data, dsigma_pre
        )
        dh2 += dh2_sigma
        _accumulate(net.sigma_head.weight, dw_sigma)
        _accumulate(net.sigma_head.bias, db_sigma)

        dh2_pre = fastgrad.relu_backward(h2_pre, dh2)
        dh1, dw2, db2 = fastgrad.linear_backward(h1, net.fc2.weight.data, dh2_pre)
        _accumulate(net.fc2.weight, dw2)
        _accumulate(net.fc2.bias, db2)
        dh1_pre = fastgrad.relu_backward(h1_pre, dh1)
        _, dw1, db1 = fastgrad.linear_backward(
            x, net.fc1.weight.data, dh1_pre, need_dx=False
        )
        _accumulate(net.fc1.weight, dw1)
        _accumulate(net.fc1.bias, db1)
        return loss

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
