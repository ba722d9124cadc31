"""The grid-output MLP: the parametric MLP's body with a quantile-grid head.

Section III-B2 notes that the same architecture can serve either
methodology: "an MLP can be trained to output distribution parameters or
predict specific quantiles".  :class:`MLPQuantileForecaster` has the
hidden architecture of the parametric
:class:`~repro.forecast.mlp.MLPForecaster`, but a quantile-grid head and
the pinball loss, enabling a like-for-like parametric-vs-grid ablation
(``benchmarks/test_ablation_mlp_heads.py``).
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, fastgrad
from .base import DEFAULT_QUANTILE_LEVELS, QuantileForecast
from .mlp import MLPBody
from .neural import NeuralForecaster, TrainingConfig

__all__ = ["MLPQuantileForecaster"]


class _MLPGridNetwork(MLPBody):
    """The parametric MLP's body with a quantile-grid head."""

    def __init__(
        self,
        context_length: int,
        horizon: int,
        num_levels: int,
        hidden_size: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(context_length, hidden_size, rng)
        self.horizon = horizon
        self.num_levels = num_levels
        self.head = Linear(hidden_size, horizon * num_levels, rng)

    def fast_forward(self, context: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """Context (B, T) -> quantile grid (B, H, Q)."""
        hidden = self.body_forward(context, cache)
        return self.head.fast_forward(hidden).reshape(-1, self.horizon, self.num_levels)

    def backward(self, cache: dict, dgrid: np.ndarray) -> None:
        """Closed-form backward of a cached :meth:`fast_forward`."""
        dh2 = self.head.backward(cache["h2"], dgrid.reshape(len(dgrid), -1))
        self.body_backward(cache, dh2)


class MLPQuantileForecaster(NeuralForecaster):
    """Grid-output twin of the parametric :class:`MLPForecaster`.

    Identical body (two hidden ReLU layers), different head and loss —
    the cleanest possible test of the paper's parametric-vs-grid
    methodology comparison at fixed capacity.
    """

    def __init__(
        self,
        context_length: int,
        horizon: int,
        quantile_levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS,
        hidden_size: int = 64,
        config: TrainingConfig | None = None,
    ) -> None:
        super().__init__(context_length, horizon, config)
        levels = tuple(sorted(quantile_levels))
        if not levels or any(not 0.0 < tau < 1.0 for tau in levels):
            raise ValueError("quantile levels must lie in (0, 1)")
        if len(set(levels)) != len(levels):
            raise ValueError("duplicate quantile levels")
        self.quantile_levels = levels
        self.default_levels = levels
        self.hidden_size = hidden_size

    def _build(self, rng: np.random.Generator) -> Module:
        return _MLPGridNetwork(
            self.context_length,
            self.horizon,
            len(self.quantile_levels),
            self.hidden_size,
            rng,
        )

    def _forward_loss(
        self,
        context: np.ndarray,
        horizon: np.ndarray,
        start_indices: np.ndarray,
        cache: dict | None = None,
    ) -> tuple[float, np.ndarray]:
        """Pinball loss (Eq. 2) of the network's (B, H, Q) grid."""
        assert self.network is not None
        predictions = self.network.fast_forward(context, cache)
        return fastgrad.quantile_loss_grads(predictions, horizon, list(self.quantile_levels))

    def predict(
        self,
        context: np.ndarray,
        levels: tuple[float, ...] | None = None,
        start_index: int = 0,
    ) -> QuantileForecast:
        self._require_fitted()
        assert self.network is not None
        context = np.asarray(context, dtype=np.float64)
        if len(context) != self.context_length:
            raise ValueError(
                f"context must have length {self.context_length}, got {len(context)}"
            )
        raw = self.network.fast_forward(self.scaler.transform(context)[None, :])[0]  # (H, Q)
        # Sorting each step's values removes quantile crossing (as in TFT).
        full = QuantileForecast(
            levels=np.array(self.quantile_levels),
            values=np.sort(self.scaler.inverse_transform(raw.T), axis=0),
        )
        if levels is None:
            return full
        levels = tuple(sorted(levels))
        values = np.stack([full.at(tau) for tau in levels])
        return QuantileForecast(levels=np.array(levels), values=values, mean=full.point)
