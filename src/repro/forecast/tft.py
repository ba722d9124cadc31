"""Temporal Fusion Transformer (quantile-grid forecaster).

The paper's strongest model and the canonical instance of the "learn a
pre-specified grid of quantiles" methodology (Figure 3b).  This is a
compact but structurally faithful TFT (Lim et al., 2019):

* past inputs (lagged value + calendar covariates) feed an LSTM encoder;
  known future inputs (calendar covariates) feed an LSTM decoder seeded
  with the encoder state — TFT's sequence-to-sequence locality layer;
* a gated (GLU) residual connection and layer norm wrap the recurrent
  output;
* interpretable multi-head self-attention with a causal mask lets every
  decoder step attend over the whole past;
* a position-wise Gated Residual Network feeds per-quantile linear heads;
* training jointly minimises the quantile (pinball) loss summed over the
  pre-specified grid (Eq. 2).

Omitted relative to the full paper model: per-variable variable-selection
networks and static covariates (the workload task has a single target
series and no static metadata — the selection weights would be
degenerate).
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    LSTM,
    GatedLinearUnit,
    GatedResidualNetwork,
    InterpretableMultiHeadAttention,
    LayerNorm,
    Linear,
    Module,
    causal_mask,
    fastgrad,
    fastpath,
)
from .base import DEFAULT_QUANTILE_LEVELS, QuantileForecast
from .features import NUM_CALENDAR_FEATURES, calendar_features
from .neural import NeuralForecaster, TrainingConfig

__all__ = ["TFTForecaster"]


class _TFTNetwork(Module):
    def __init__(
        self,
        d_model: int,
        num_heads: int,
        num_quantiles: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.past_proj = Linear(1 + NUM_CALENDAR_FEATURES, d_model, rng)
        self.future_proj = Linear(NUM_CALENDAR_FEATURES, d_model, rng)
        self.encoder = LSTM(d_model, d_model, rng)
        self.decoder = LSTM(d_model, d_model, rng)
        self.lstm_gate = GatedLinearUnit(d_model, d_model, rng)
        self.lstm_norm = LayerNorm(d_model)
        self.attention = InterpretableMultiHeadAttention(d_model, num_heads, rng)
        self.attn_gate = GatedLinearUnit(d_model, d_model, rng)
        self.attn_norm = LayerNorm(d_model)
        self.feed_forward = GatedResidualNetwork(d_model, d_model, d_model, rng)
        self.quantile_head = Linear(d_model, num_quantiles, rng)
        self._last_attention: np.ndarray | None = None

    def fast_forward(
        self,
        past: np.ndarray,
        future: np.ndarray,
        cache: dict | None = None,
    ) -> np.ndarray:
        """past: (B, T, 1+F); future: (B, H, F) -> quantiles (B, H, Q).

        Computes in the dtype of the weights; the caller hands in inputs
        of that dtype.  A ``cache`` dict receives every layer's
        activations, keyed by layer name, for :meth:`backward`;
        predictions are bitwise the same with and without it.
        """
        def keep(name: str, result: tuple):
            # Split a kernel's (*outputs, activations) and record the latter.
            # No local outlives this call holding the activations, so an
            # inference pass frees each layer's buffers before the next
            # layer allocates (holding them costs ~2% of a predict).
            *outputs, activations = result
            if cache is not None:
                cache[name] = activations
            return outputs[0] if len(outputs) == 1 else outputs

        enc_caches, dec_caches = (None, None) if cache is None else ([], [])
        encoded_in = self.past_proj.fast_forward(past)
        decoded_in = self.future_proj.fast_forward(future)
        encoded, state = self.encoder.fast_forward(encoded_in, cache=enc_caches)
        decoded, _ = self.decoder.fast_forward(decoded_in, state, cache=dec_caches)

        # Gated skip around the seq2seq layer (TFT Eq. 17).
        sequence = np.concatenate([encoded, decoded], axis=1)
        skip = np.concatenate([encoded_in, decoded_in], axis=1)
        gated = keep("lstm_gate", fastpath.glu_forward(self.lstm_gate, sequence))
        sequence = keep("lstm_norm", fastpath.layer_norm(self.lstm_norm, skip + gated))

        horizon = decoded.shape[1]
        query = sequence[:, -horizon:, :]
        mask = causal_mask(query_len=horizon, key_len=sequence.shape[1])
        attended, weights = keep(
            "attention",
            fastpath.interpretable_attention(self.attention, query, sequence, sequence, mask=mask),
        )
        self._last_attention = weights
        gated = keep("attn_gate", fastpath.glu_forward(self.attn_gate, attended))
        attended = keep("attn_norm", fastpath.layer_norm(self.attn_norm, query + gated))

        grn_out = keep("feed_forward", fastpath.grn_forward(self.feed_forward, attended))
        if cache is not None:
            cache.update(
                past=past, future=future, encoder=enc_caches, decoder=dec_caches,
                grn_out=grn_out,
            )
        return self.quantile_head.fast_forward(grn_out)

    def backward(self, cache: dict, dpred: np.ndarray) -> None:
        """Closed-form backward of a cached :meth:`fast_forward`.

        Reverse order of the forward: quantile head -> GRN -> attention
        block -> gated LSTM skip -> decoder -> encoder -> input
        projections, every gradient accumulated into ``param.grad``.
        Each layer's entry is popped from ``cache`` as it is used, so its
        activations are freed before the next layer's backward runs (the
        attention's score-sized softmax goes before the BPTT sweeps).
        """
        hs = self.encoder.hidden_size
        steps = cache["past"].shape[1]
        dgrn = self.quantile_head.backward(cache.pop("grn_out"), dpred)

        dattended_res = fastgrad.grn_backward(self.feed_forward, cache.pop("feed_forward"), dgrn)
        dsum = fastgrad.layer_norm_backward(self.attn_norm, cache.pop("attn_norm"), dattended_res)
        dquery = dsum.copy()  # residual branch
        dattended = fastgrad.glu_backward(self.attn_gate, cache.pop("attn_gate"), dsum)
        dq_attn, dkey, dvalue = fastgrad.attention_backward(
            self.attention, cache.pop("attention"), dattended
        )
        dquery += dq_attn
        dsequence = dkey + dvalue
        dsequence[:, steps:, :] += dquery

        dsum = fastgrad.layer_norm_backward(self.lstm_norm, cache.pop("lstm_norm"), dsequence)
        dseq_in = fastgrad.glu_backward(self.lstm_gate, cache.pop("lstm_gate"), dsum)
        dskip = dsum  # residual branch; split below
        denc_in = dskip[:, :steps, :].copy()
        ddec_in = dskip[:, steps:, :].copy()

        dec_grads, ddec_x, dec_dstate = fastgrad.lstm_backward(
            dseq_in[:, steps:, :], cache.pop("decoder"), hs, need_dx=True
        )
        ddec_in += ddec_x
        # The decoder's initial state is the encoder's final state, so
        # d(h0)/d(c0) of the decoder flows into the encoder backward.
        enc_grads, denc_x, _ = fastgrad.lstm_backward(
            dseq_in[:, :steps, :], cache.pop("encoder"), hs, need_dx=True, dstate=dec_dstate
        )
        denc_in += denc_x
        self.encoder.accumulate_grads(enc_grads)
        self.decoder.accumulate_grads(dec_grads)

        self.past_proj.backward(cache.pop("past"), denc_in, need_dx=False)
        self.future_proj.backward(cache.pop("future"), ddec_in, need_dx=False)


class TFTForecaster(NeuralForecaster):
    """Quantile-grid forecaster.

    Parameters
    ----------
    quantile_levels:
        The pre-specified grid A.  Changing it requires retraining —
        the structural trade-off the paper highlights for this method
        family.
    """

    _network_dtype = np.dtype(np.float32)  # predict is an LSTM scan (docs/nn.md, Precision)

    def __init__(
        self,
        context_length: int,
        horizon: int,
        quantile_levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS,
        d_model: int = 32,
        num_heads: int = 4,
        window_normalization: bool = True,
        config: TrainingConfig | None = None,
    ) -> None:
        super().__init__(context_length, horizon, config)
        levels = tuple(sorted(quantile_levels))
        if not levels or any(not 0.0 < tau < 1.0 for tau in levels):
            raise ValueError("quantile levels must lie in (0, 1)")
        if len(set(levels)) != len(levels):
            raise ValueError("duplicate quantile levels")
        self.quantile_levels = levels
        self.default_levels = levels  # predict(levels=None) -> trained grid
        self.d_model = d_model
        self.num_heads = num_heads
        # Per-window centering (each window shifted by its own context
        # mean) makes forecasts follow level drift — the level-handling
        # trick of the reference implementations.  The global scaler
        # still runs first; the window mean is computed in the
        # globally-normalised space.
        self.window_normalization = window_normalization

    def _build(self, rng: np.random.Generator) -> Module:
        return _TFTNetwork(self.d_model, self.num_heads, len(self.quantile_levels), rng)

    def _network_inputs(
        self, context: np.ndarray, start_indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        batch, length = context.shape
        past_idx = start_indices[:, None] + np.arange(length)[None, :]
        future_idx = start_indices[:, None] + length + np.arange(self.horizon)[None, :]
        past = np.concatenate([context[..., None], calendar_features(past_idx)], axis=-1)
        future = calendar_features(future_idx)
        return past, future

    def _window_mean(self, context: np.ndarray) -> np.ndarray:
        """Per-window location from the context (B, T) -> (B, 1).

        Location-only centering: subtracting the window mean makes
        forecasts follow level drift, while keeping the global scale
        leaves volatility differences between windows visible to the
        network (the signal behind the Eq. 8 uncertainty metric).
        """
        return context.mean(axis=1, keepdims=True)

    def _forward_loss(
        self,
        context: np.ndarray,
        horizon: np.ndarray,
        start_indices: np.ndarray,
        cache: dict | None = None,
    ) -> tuple[float, np.ndarray]:
        """Pinball loss (Eq. 2) of the network's (B, H, Q) grid."""
        assert self.network is not None
        if self.window_normalization:
            mean = self._window_mean(context)
            context = context - mean
            horizon = horizon - mean
        past, future, horizon = self._at_entry(*self._network_inputs(context, start_indices), horizon)
        predictions = self.network.fast_forward(past, future, cache=cache)
        return fastgrad.quantile_loss_grads(predictions, horizon, list(self.quantile_levels))

    def predict(
        self,
        context: np.ndarray,
        levels: tuple[float, ...] | None = None,
        start_index: int = 0,
    ) -> QuantileForecast:
        """Quantile forecasts on (a subset of) the trained grid.

        ``levels=None`` returns the full trained grid.  Off-grid levels
        within the grid's range are served by the container's linear
        interpolation; levels outside the range raise — retraining with a
        wider grid is the honest fix (paper Section III-B2).
        """
        self._require_fitted()
        context = np.asarray(context, dtype=np.float64)
        if len(context) != self.context_length:
            raise ValueError(
                f"context must have length {self.context_length}, got {len(context)}"
            )
        normalised = self.scaler.transform(context)[None, :]
        if self.window_normalization:
            mean = self._window_mean(normalised)
            normalised = normalised - mean
        past, future = self._at_entry(*self._network_inputs(normalised, np.array([start_index])))
        # The float32 network's normalised output is widened before it is
        # mapped back to workload units.
        raw = self.network.fast_forward(past, future)[0].astype(np.float64, copy=False)  # (H, Q)
        if self.window_normalization:
            raw = raw + mean[0, 0]
        grid_values = self.scaler.inverse_transform(raw.T)  # (Q, H)
        full = QuantileForecast(
            levels=np.array(self.quantile_levels), values=grid_values
        ).sorted_monotone()
        if levels is None:
            return full
        levels = tuple(sorted(levels))
        values = np.stack([full.at(tau) for tau in levels])
        return QuantileForecast(levels=np.array(levels), values=values, mean=full.point)

    def attention_weights(self) -> np.ndarray | None:
        """Mean attention pattern of the last forward pass (interpretability):
        the last :meth:`predict`'s, or right after a fit the last batch's."""
        return None if self.network is None else self.network._last_attention
