"""DeepAR: autoregressive RNN with a Student-t output head.

Faithful to Salinas et al. (2017) as the paper uses it (Section III-B2):

* an LSTM consumes the lagged target plus calendar covariates,
* a distribution head emits Student-t parameters (the paper's choice —
  "longer tails and a larger variance, allowing it to better handle
  outliers and noise"),
* training maximises per-step likelihood with teacher forcing over
  context + horizon,
* prediction runs ancestral sampling: many trajectories are unrolled by
  feeding sampled values back in, and quantiles are read off the sample
  cloud per step ("sampling methods", whose accuracy grows with sample
  count).

A Gaussian head is also provided for the likelihood ablation bench.
"""

from __future__ import annotations

import numpy as np

from ..distributions import Empirical
from ..nn import LSTM, Linear, Module, fastgrad, fastpath
from .base import QuantileForecast
from .features import NUM_CALENDAR_FEATURES, calendar_features, calendar_window
from .neural import NeuralForecaster, TrainingConfig

__all__ = ["DeepARForecaster"]

_MIN_DF = 2.0  # keep the Student-t variance finite
_MIN_SCALE = 1e-4


class _DeepARNetwork(Module):
    """LSTM over [lagged value, calendar features] -> distribution params."""

    def __init__(self, hidden_size: int, num_layers: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.lstm = LSTM(1 + NUM_CALENDAR_FEATURES, hidden_size, rng, num_layers=num_layers)
        self.mu_head = Linear(hidden_size, 1, rng)
        self.scale_head = Linear(hidden_size, 1, rng)
        self.df_head = Linear(hidden_size, 1, rng)

    def fast_forward(
        self, inputs: np.ndarray, cache: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Teacher-forced pass: inputs (B, T, 1+F) -> ``(mu, scale, df)``, each (B*T,).

        One batched scan, then dense heads on the flattened hidden
        sequence.  A ``cache`` dict receives what :meth:`backward`
        differentiates through.
        """
        caches = None if cache is None else []
        hidden, _ = self.lstm.fast_forward(inputs, cache=caches)
        flat = hidden.reshape(-1, self.lstm.hidden_size)
        mu = self.mu_head.fast_forward(flat)[:, 0]
        scale_pre = self.scale_head.fast_forward(flat)[:, 0]
        df_pre = self.df_head.fast_forward(flat)[:, 0]
        if cache is not None:
            cache.update(
                lstm=caches, hidden_shape=hidden.shape, flat=flat,
                scale_pre=scale_pre, df_pre=df_pre,
            )
        return (
            mu,
            fastpath.softplus(scale_pre) + _MIN_SCALE,
            fastpath.softplus(df_pre) + _MIN_DF,
        )

    def backward(
        self,
        cache: dict,
        dmu: np.ndarray,
        dscale: np.ndarray,
        ddf: np.ndarray | None = None,
    ) -> None:
        """Closed-form backward of a cached :meth:`fast_forward`.

        Heads first, then fused BPTT (:func:`repro.nn.fastgrad.lstm_backward`).
        A likelihood that ignores ``df`` passes no ``ddf`` and leaves the
        df head without a gradient.
        """
        flat = cache["flat"]
        dscale_pre = fastgrad.softplus_backward(cache["scale_pre"], dscale)
        dhidden = self.mu_head.backward(flat, dmu[:, None])
        dhidden += self.scale_head.backward(flat, dscale_pre[:, None])
        if ddf is not None:
            ddf_pre = fastgrad.softplus_backward(cache["df_pre"], ddf)
            dhidden += self.df_head.backward(flat, ddf_pre[:, None])
        grads, _, _ = fastgrad.lstm_backward(
            dhidden.reshape(cache["hidden_shape"]), cache["lstm"], self.lstm.hidden_size
        )
        self.lstm.accumulate_grads(grads)


class DeepARForecaster(NeuralForecaster):
    """Probabilistic forecaster that learns a parametric distribution.

    Parameters
    ----------
    num_samples:
        Sample paths drawn at prediction time; quantile accuracy improves
        with more paths (paper Section III-B2).
    likelihood:
        ``"student_t"`` (paper default) or ``"gaussian"`` (ablation).
    """

    _network_dtype = np.dtype(np.float32)  # predict is an LSTM scan (docs/nn.md, Precision)

    def __init__(
        self,
        context_length: int,
        horizon: int,
        hidden_size: int = 32,
        num_layers: int = 2,
        num_samples: int = 100,
        likelihood: str = "student_t",
        config: TrainingConfig | None = None,
    ) -> None:
        super().__init__(context_length, horizon, config)
        if likelihood not in ("student_t", "gaussian"):
            raise ValueError(f"unknown likelihood {likelihood!r}")
        if num_samples < 2:
            raise ValueError("num_samples must be >= 2")
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.num_samples = num_samples
        self.likelihood = likelihood
        self._sample_rng = np.random.default_rng((config.seed if config else 0) + 777)

    def _build(self, rng: np.random.Generator) -> Module:
        return _DeepARNetwork(self.hidden_size, self.num_layers, rng)

    def _inputs(self, lagged: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Stack lagged target with calendar features -> (B, T, 1+F)."""
        features = calendar_features(indices)
        return np.concatenate([lagged[..., None], features], axis=-1)

    def _forward_loss(
        self,
        context: np.ndarray,
        horizon: np.ndarray,
        start_indices: np.ndarray,
        cache: dict | None = None,
    ) -> tuple:
        """Teacher-forced per-step NLL over context + horizon."""
        assert self.network is not None
        full = np.concatenate([context, horizon], axis=1)  # (B, T+H)
        lagged = full[:, :-1]
        indices = start_indices[:, None] + 1 + np.arange(lagged.shape[1])[None, :]
        inputs, targets = self._at_entry(self._inputs(lagged, indices), full[:, 1:].reshape(-1))
        mu, scale, df = self.network.fast_forward(inputs, cache)
        if self.likelihood == "student_t":
            return fastgrad.student_t_nll_grads(mu, scale, df, targets)
        return fastgrad.gaussian_nll_grads(mu, scale, targets)

    def predict(
        self,
        context: np.ndarray,
        levels: tuple[float, ...] | None = None,
        start_index: int = 0,
    ) -> QuantileForecast:
        """Empirical quantiles of the sampled trajectories.

        ``levels=None`` serves :attr:`default_levels`; any level in
        (0, 1) is served from the sample cloud.  ``start_index`` is
        *used*: DeepAR conditions on calendar features, so pass the
        context's absolute trace position for phase alignment.
        """
        distribution = self.sample_paths(context, start_index)
        levels = self._resolve_levels(levels)
        values = distribution.quantiles(levels)
        mean = distribution.mean()
        return QuantileForecast(levels=np.array(levels), values=values, mean=mean)

    def reseed_sampler(self, seed: object) -> None:
        """Reset the ancestral-sampling RNG to a deterministic seed.

        ``backtest`` calls this before every decision window so that
        sample draws depend only on (seed, window), never on how many
        windows were forecast before it.
        """
        self._sample_rng = np.random.default_rng(seed)

    def sample_paths(self, context: np.ndarray, start_index: int = 0) -> Empirical:
        """Draw ``num_samples`` trajectories; returns the per-step cloud.

        Shapes: the returned :class:`Empirical` holds samples of shape
        (num_samples, horizon) in workload units.

        The warm-up over the context runs once at batch 1 (every sample
        path conditions on the same observed context), and the resulting
        LSTM state is tiled across the ``num_samples`` trajectories.
        Each horizon step then advances all trajectories through the
        raw-array kernels of :mod:`repro.nn.fastpath` in one cell call
        per layer; calendar features are read from the cached
        per-(start_index, horizon) matrix.  The sampler runs in the
        network's float32 (:meth:`_sample_fast`); on a float64 network it
        is, for the same seed, bit-identical to the same algorithm on the
        autograd tape (``tests/nn/oracles.py``), which the parity suite
        asserts.
        """
        self._require_fitted()
        assert self.network is not None
        context = np.asarray(context, dtype=np.float64)
        if len(context) != self.context_length:
            raise ValueError(
                f"context must have length {self.context_length}, got {len(context)}"
            )
        samples = self._sample_fast(self.scaler.transform(context), start_index)
        # float32 normalised samples; the scaler widens them before it maps to
        # workload units, where one float32 ulp would be ~1e-4.
        return Empirical(self.scaler.inverse_transform(samples))

    def _warmup_inputs(self, normalised: np.ndarray, start_index: int) -> np.ndarray:
        """(1, T-1, 1+F) warm-up inputs: lagged context + cached calendar."""
        features = calendar_window(start_index + 1, len(normalised) - 1)
        return np.concatenate([normalised[:-1, None], features], axis=-1)[None, :, :]

    def _draw(self, mu: np.ndarray, scale: np.ndarray, df: np.ndarray) -> np.ndarray:
        """One ancestral-sampling draw per trajectory."""
        if self.likelihood == "student_t":
            return mu + scale * self._sample_rng.standard_t(df)
        return self._sample_rng.normal(mu, scale)

    def _sample_fast(self, normalised: np.ndarray, start_index: int) -> np.ndarray:
        """Vectorized sampling on raw-numpy kernels (the production path).

        Runs in the dtype of the network's weights, float32: the LSTM
        scan, the heads and the sample buffer are single precision, the
        RNG draws (always float64 from numpy's Generator) are rounded
        into the buffer, and the scaler widens the normalised samples
        before it maps them to workload units.
        """
        net = self.network
        n = self.num_samples
        w_mu, b_mu = net.mu_head.weight.data, net.mu_head.bias.data
        w_scale, b_scale = net.scale_head.weight.data, net.scale_head.bias.data
        w_df, b_df = net.df_head.weight.data, net.df_head.bias.data
        work = w_mu.dtype
        # Warm up at batch 1 — the context is shared by every trajectory —
        # through the LSTM only (the head outputs are discarded anyway).
        _, state = net.lstm.fast_forward(self._warmup_inputs(normalised, start_index))
        # Tile the (batch 1) warm-up state across all trajectories.
        state = [(np.repeat(h, n, axis=0), np.repeat(c, n, axis=0)) for h, c in state]

        # The horizon loop runs hot: prepare the weights once (gates first
        # and pre-halved as lstm_cell_permuted requires, see
        # fastpath.prepare_lstm_params), tile each bias across the
        # trajectories so its add is one contiguous pass per step, and keep
        # them and the heads in locals.
        prepared = [
            (w_ih, w_hh, np.repeat(bias, n, axis=1))
            for w_ih, w_hh, bias in fastpath.prepare_lstm_params(
                net.lstm._layer_params(), self.hidden_size
            )
        ]
        cell = fastpath.lstm_cell_permuted
        softplus = fastpath.softplus

        horizon_features = calendar_window(
            start_index + self.context_length, self.horizon
        ).astype(work)
        step_inputs = np.empty((n, 1 + NUM_CALENDAR_FEATURES), dtype=work)
        samples = np.empty((n, self.horizon), dtype=work)
        # First horizon step is conditioned on the last context value.
        last = np.full(n, normalised[-1], dtype=work)
        for h in range(self.horizon):
            step_inputs[:, 0] = last
            step_inputs[:, 1:] = horizon_features[h]
            top = step_inputs
            for layer, (w_ih, w_hh, bias) in enumerate(prepared):
                h_prev, c_prev = state[layer]
                h_new, c_new = cell(top, h_prev, c_prev, w_ih, w_hh, bias)[:2]
                state[layer] = (h_new, c_new)
                top = h_new
            mu = (top @ w_mu + b_mu)[:, 0]
            scale = softplus((top @ w_scale + b_scale)[:, 0]) + _MIN_SCALE
            df = softplus((top @ w_df + b_df)[:, 0]) + _MIN_DF
            samples[:, h] = self._draw(mu, scale, df)
            # Feed back the *stored* value: the next step conditions on
            # exactly what this one emitted, rounded to the buffer's dtype.
            last = samples[:, h]
        return samples
