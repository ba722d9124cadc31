"""Tape-side reference implementations the parity tests compare against.

Production code has one raw-array forward per layer
(:mod:`repro.nn.fastpath`) and computes every gradient with the analytic
backwards of :mod:`repro.nn.fastgrad`.  The autograd tape
(``tests/nn/tensor.py``, losses in ``tests/nn/functional.py``) is the
oracle for both.  :func:`forward` composes a *production* module on the
tape - its parameters enter as leaf tensors sharing ``param.data`` and
``param.grad`` (:func:`leaf`), so ``forward(layer, x).sum().backward()``
leaves gradients exactly where the analytic pass leaves them -
:func:`tape_loss` does the same for a forecaster's training loss, and the
helpers below run whole algorithms that way.

Tape and kernels share one logistic (``fastpath.sigmoid``) and the cell
runs on pre-halved weights, so their parity cannot catch a mistake in
that trick.  :func:`reference_lstm_cell` is the oracle independent of
it - textbook ``[i, f, g, o]`` layout, ``scipy.special.expit`` gates -
and :func:`reference_kernels` runs whole forecasters on it.
"""

from __future__ import annotations

from functools import singledispatch

import numpy as np
from scipy.special import expit

from repro.forecast.deepar import _MIN_DF, _MIN_SCALE, DeepARForecaster, _DeepARNetwork
from repro.forecast.features import NUM_CALENDAR_FEATURES, calendar_window
from repro.forecast.mlp import MLPForecaster, _MLPNetwork
from repro.forecast.qb5000 import _LSTMPointForecaster, _LSTMPointNetwork
from repro.forecast.quantile_regression import (
    MLPQuantileForecaster,
    QuantileRegressionForecaster,
    _LinearGridNetwork,
    _MLPGridNetwork,
)
from repro.forecast.tft import TFTForecaster, _TFTNetwork
from repro.nn import (
    LSTM,
    GatedLinearUnit,
    GatedResidualNetwork,
    InterpretableMultiHeadAttention,
    LayerNorm,
    Linear,
    causal_mask,
    fastpath,
)
from repro.nn.layers import Dropout
from repro.nn.module import Parameter
from repro.nn.rnn import LSTMCell

from . import functional as F
from .tensor import Tensor


# ---------------------------------------------------------------------------
# Production parameters on the tape
# ---------------------------------------------------------------------------
class _Leaf(Tensor):
    """A production :class:`Parameter` seen from the tape.

    Shares the parameter's array, and its ``grad`` *is* the parameter's:
    ``backward()`` accumulates straight into ``param.grad`` and
    ``param.zero_grad()`` clears what the tape sees.
    """

    __slots__ = ("_param",)

    def __init__(self, param: Parameter) -> None:
        self._param = param
        kept = param.grad  # Tensor.__init__ resets .grad
        super().__init__(param.data, requires_grad=True)
        param.grad = kept

    @property
    def grad(self) -> np.ndarray | None:
        return self._param.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._param.grad = value


def leaf(param: Parameter) -> Tensor:
    """``param`` as a leaf tensor (a fresh node per use; gradients add up)."""
    return _Leaf(param)


# ---------------------------------------------------------------------------
# Layers and networks composed on the tape
# ---------------------------------------------------------------------------
@singledispatch
def forward(module, *args, **kwargs):
    """The tape composition of ``module``; same signature as its ``fast_forward``
    with :class:`Tensor` in place of ndarrays."""
    raise TypeError(f"no tape composition for {type(module).__name__}")


@forward.register
def _(layer: Linear, x: Tensor) -> Tensor:
    out = x @ leaf(layer.weight)
    if layer.bias is not None:
        out = out + leaf(layer.bias)
    return out


@forward.register
def _(layer: Dropout, x: Tensor) -> Tensor:
    mask = layer.mask(x.shape)
    return x if mask is None else x * Tensor(mask)


@forward.register
def _(norm: LayerNorm, x: Tensor) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) * (x - mu)).mean(axis=-1, keepdims=True)
    normed = (x - mu) / (var + norm.eps).sqrt()
    return normed * leaf(norm.gamma) + leaf(norm.beta)


@forward.register
def _(glu: GatedLinearUnit, x: Tensor) -> Tensor:
    return forward(glu.gate, x).sigmoid() * forward(glu.value, x)


@forward.register
def _(grn: GatedResidualNetwork, x: Tensor) -> Tensor:
    hidden = forward(grn.fc2, forward(grn.fc1, x).tanh())
    hidden = forward(grn.dropout, hidden)
    gated = forward(grn.glu, hidden)
    residual = forward(grn.skip, x) if grn.skip is not None else x
    return forward(grn.norm, residual + gated)


@forward.register
def _(cell: LSTMCell, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """One step: x (batch, input_size), state (h, c) each (batch, hidden_size)."""
    h_prev, c_prev = state
    gates = x @ leaf(cell.w_ih) + h_prev @ leaf(cell.w_hh) + leaf(cell.bias)
    hs = cell.hidden_size
    i_gate = gates[:, :hs].sigmoid()
    f_gate = gates[:, hs : 2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs : 3 * hs].tanh()
    o_gate = gates[:, 3 * hs :].sigmoid()
    c_new = f_gate * c_prev + i_gate * g_gate
    h_new = o_gate * c_new.tanh()
    return h_new, c_new


@forward.register
def _(
    lstm: LSTM, x: Tensor, state: list[tuple[Tensor, Tensor]] | None = None
) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    batch, steps, _ = x.shape
    state = initial_state(lstm, batch) if state is None else list(state)
    layer_input = [x[:, t, :] for t in range(steps)]
    for layer, cell in enumerate(lstm._cells):
        h, c = state[layer]
        outputs = []
        for step_input in layer_input:
            h, c = forward(cell, step_input, (h, c))
            outputs.append(h)
        state[layer] = (h, c)
        layer_input = outputs
    return Tensor.stack(layer_input, axis=1), state


def initial_state(module: "LSTMCell | LSTM", batch_size: int):
    """Zero ``(h, c)`` for a cell, or one pair per layer for an LSTM."""
    if isinstance(module, LSTM):
        return [initial_state(cell, batch_size) for cell in module._cells]
    zeros = np.zeros((batch_size, module.hidden_size))
    return Tensor(zeros), Tensor(zeros.copy())


def scaled_dot_product_attention(
    query: Tensor, key: Tensor, value: Tensor, mask: np.ndarray | None = None
) -> tuple[Tensor, Tensor]:
    """Standard attention: softmax(QK^T / sqrt(d)) V.

    Shapes: query (B, Tq, d), key (B, Tk, d), value (B, Tk, dv).
    Returns (output, attention_weights).
    """
    d_k = query.shape[-1]
    scores = (query @ key.swapaxes(-1, -2)) * (1.0 / np.sqrt(d_k))
    if mask is not None:
        scores = scores + Tensor(mask)
    weights = scores.softmax(axis=-1)
    return weights @ value, weights


@forward.register
def _(
    attn: InterpretableMultiHeadAttention,
    query: Tensor,
    key: Tensor,
    value: Tensor,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Returns (output (B, Tq, d_model), mean attention (B, Tq, Tk))."""
    shared_value = forward(attn.v_proj, value)
    head_outputs = []
    head_weights = []
    for q_proj, k_proj in zip(attn._q_projs, attn._k_projs):
        out, weights = scaled_dot_product_attention(
            forward(q_proj, query), forward(k_proj, key), shared_value, mask=mask
        )
        head_outputs.append(out)
        head_weights.append(weights)
    mean_output = Tensor.stack(head_outputs, axis=0).mean(axis=0)
    mean_weights = Tensor.stack(head_weights, axis=0).mean(axis=0)
    return forward(attn.out_proj, mean_output), mean_weights


@forward.register
def _(net: _MLPNetwork, context: Tensor) -> tuple[Tensor, Tensor]:
    hidden = forward(net.fc2, forward(net.fc1, context).relu()).relu()
    mu = forward(net.mu_head, hidden)
    sigma = forward(net.sigma_head, hidden).softplus() + 1e-4
    return mu, sigma


@forward.register
def _(
    net: _DeepARNetwork, inputs: Tensor, state: list[tuple[Tensor, Tensor]] | None = None
) -> tuple[Tensor, Tensor, Tensor, list[tuple[Tensor, Tensor]]]:
    """inputs (B, T, 1+F) -> ``(mu, scale, df)`` each (B, T), and the LSTM state."""
    hidden, state = forward(net.lstm, inputs, state)
    mu = forward(net.mu_head, hidden)[..., 0]
    scale = forward(net.scale_head, hidden)[..., 0].softplus() + _MIN_SCALE
    df = forward(net.df_head, hidden)[..., 0].softplus() + _MIN_DF
    return mu, scale, df, state


@forward.register
def _(net: _TFTNetwork, past: Tensor, future: Tensor) -> Tensor:
    """past: (B, T, 1+F); future: (B, H, F) -> quantiles (B, H, Q)."""
    encoded_in = forward(net.past_proj, past)
    decoded_in = forward(net.future_proj, future)
    encoded, state = forward(net.encoder, encoded_in)
    decoded, _ = forward(net.decoder, decoded_in, state)

    # Gated skip around the seq2seq layer (TFT Eq. 17).
    sequence = Tensor.concat([encoded, decoded], axis=1)
    skip = Tensor.concat([encoded_in, decoded_in], axis=1)
    sequence = forward(net.lstm_norm, skip + forward(net.lstm_gate, sequence))

    horizon = decoded.shape[1]
    query = sequence[:, -horizon:, :]
    mask = causal_mask(query_len=horizon, key_len=sequence.shape[1])
    attended, weights = forward(net.attention, query, sequence, sequence, mask=mask)
    net._last_attention = weights.data
    attended = forward(net.attn_norm, query + forward(net.attn_gate, attended))

    return forward(net.quantile_head, forward(net.feed_forward, attended))


@forward.register
def _(net: _LSTMPointNetwork, context: Tensor) -> Tensor:
    hidden, _ = forward(net.lstm, context.reshape(*context.shape, 1))
    return forward(net.head, hidden[:, -1, :])


@forward.register
def _(net: _LinearGridNetwork, context: Tensor) -> Tensor:
    out = forward(net.head, context)
    return out.reshape(out.shape[0], net.horizon, net.num_levels)


@forward.register
def _(net: _MLPGridNetwork, context: Tensor) -> Tensor:
    hidden = forward(net.fc2, forward(net.fc1, context).relu()).relu()
    out = forward(net.head, hidden)
    return out.reshape(out.shape[0], net.horizon, net.num_levels)


# ---------------------------------------------------------------------------
# Training losses composed on the tape
# ---------------------------------------------------------------------------
@singledispatch
def tape_loss(forecaster, context: np.ndarray, horizon: np.ndarray, start_indices: np.ndarray) -> Tensor:
    """One minibatch's training loss as a scalar :class:`Tensor` - the
    reference for the forecaster's ``_forward_loss`` / ``_loss_backward``."""
    raise TypeError(f"no tape loss for {type(forecaster).__name__}")


@tape_loss.register
def _(forecaster: MLPForecaster, context, horizon, start_indices) -> Tensor:
    mu, sigma = forward(forecaster.network, Tensor(context))
    return F.gaussian_nll(mu, sigma, horizon)


@tape_loss.register
def _(forecaster: DeepARForecaster, context, horizon, start_indices) -> Tensor:
    full = np.concatenate([context, horizon], axis=1)  # (B, T+H)
    lagged = full[:, :-1]
    targets = full[:, 1:]
    indices = start_indices[:, None] + 1 + np.arange(lagged.shape[1])[None, :]
    mu, scale, df, _ = forward(forecaster.network, Tensor(forecaster._inputs(lagged, indices)))
    if forecaster.likelihood == "student_t":
        return F.student_t_nll(mu, scale, df, targets)
    return F.gaussian_nll(mu, scale, targets)


@tape_loss.register
def _(forecaster: TFTForecaster, context, horizon, start_indices) -> Tensor:
    if forecaster.window_normalization:
        mean, std = forecaster._window_stats(context)
        context = (context - mean) / std
        horizon = (horizon - mean) / std
    past, future = forecaster._network_inputs(context, start_indices)
    predictions = forward(forecaster.network, Tensor(past), Tensor(future))  # (B, H, Q)
    return F.quantile_loss(predictions, horizon, list(forecaster.quantile_levels))


@tape_loss.register(QuantileRegressionForecaster)
@tape_loss.register(MLPQuantileForecaster)
def _(forecaster, context, horizon, start_indices) -> Tensor:
    predictions = forward(forecaster.network, Tensor(context))
    return F.quantile_loss(predictions, horizon, list(forecaster.quantile_levels))


@tape_loss.register
def _(forecaster: _LSTMPointForecaster, context, horizon, start_indices) -> Tensor:
    return F.mse_loss(forward(forecaster.network, Tensor(context)), horizon)


def tape_loss_backward(forecaster, batch) -> float:
    """``tape_loss(forecaster, *batch).backward()``; returns the loss value.

    Same contract as a forecaster's ``_loss_backward``: gradients are
    accumulated into ``param.grad``.
    """
    loss = tape_loss(forecaster, *batch)
    loss.backward()
    return loss.item()


def tape_fit(forecaster, series, **fit_kwargs):
    """``forecaster.fit(series)`` with every training step on the autograd tape."""
    forecaster._loss_backward = lambda *batch: tape_loss_backward(forecaster, batch)
    try:
        return forecaster.fit(series, **fit_kwargs)
    finally:
        del forecaster._loss_backward


# ---------------------------------------------------------------------------
# Whole algorithms on the tape
# ---------------------------------------------------------------------------
def sample_paths_tape(forecaster, normalised: np.ndarray, start_index: int) -> np.ndarray:
    """``DeepARForecaster._sample_fast`` through the Tensor tape.

    Every matmul here has the same operand shapes as the raw-kernel
    sampler (warm-up at batch 1, per-step heads on the squeezed (n, H)
    hidden), so both execute identical BLAS calls and the sampled
    trajectories match bit for bit given the same RNG seed.
    """
    n = forecaster.num_samples
    net = forecaster.network
    _, state = forward(net.lstm, Tensor(forecaster._warmup_inputs(normalised, start_index)))
    state = [
        (Tensor(np.repeat(h.data, n, axis=0)), Tensor(np.repeat(c.data, n, axis=0)))
        for h, c in state
    ]

    horizon_features = calendar_window(
        start_index + forecaster.context_length, forecaster.horizon
    )
    step_inputs = np.empty((n, 1, 1 + NUM_CALENDAR_FEATURES))
    samples = np.empty((n, forecaster.horizon))
    last = np.full(n, normalised[-1])
    for h in range(forecaster.horizon):
        step_inputs[:, 0, 0] = last
        step_inputs[:, 0, 1:] = horizon_features[h]
        hidden, state = forward(net.lstm, Tensor(step_inputs), state)
        top = hidden[:, 0, :]
        mu = forward(net.mu_head, top)[..., 0]
        scale = forward(net.scale_head, top)[..., 0].softplus() + _MIN_SCALE
        df = forward(net.df_head, top)[..., 0].softplus() + _MIN_DF
        draws = forecaster._draw(mu.data, scale.data, df.data)
        samples[:, h] = draws
        last = draws
    return samples


def legacy_sample_paths(forecaster, context: np.ndarray, start_index: int = 0) -> np.ndarray:
    """Replica of the seed's ``sample_paths`` (before the raw kernels).

    Warm-up runs the full Tensor network at batch ``num_samples`` (the
    context is tiled per trajectory) and every horizon step goes through
    the whole network with (n, 1, F) inputs.  It consumes
    the rng with different call shapes than the current sampler, so it
    is a distributional reference, not a bitwise one.
    """
    net = forecaster.network
    context = np.asarray(context, dtype=np.float64)
    normalised = forecaster.scaler.transform(context)
    n = forecaster.num_samples
    lagged = np.tile(normalised[:-1], (n, 1))
    indices = start_index + 1 + np.tile(np.arange(len(context) - 1), (n, 1))
    mu, scale, df, state = forward(net, Tensor(forecaster._inputs(lagged, indices)))
    last_value = np.full((n, 1), normalised[-1])
    samples = np.empty((n, forecaster.horizon))
    for h in range(forecaster.horizon):
        step_index = np.full((n, 1), start_index + len(context) + h)
        inputs = forecaster._inputs(last_value, step_index)
        mu, scale, df, state = forward(net, Tensor(inputs), state)
        mu_h, scale_h = mu.data[:, 0], scale.data[:, 0]
        draws = mu_h + scale_h * forecaster._sample_rng.standard_t(df.data[:, 0])
        samples[:, h] = draws
        last_value = draws[:, None]
    return forecaster.scaler.inverse_transform(samples)


# ---------------------------------------------------------------------------
# The oracle that shares nothing with the kernels
# ---------------------------------------------------------------------------
def reference_lstm_cell(x, h_prev, c_prev, w_ih, w_hh, bias, hidden_size):
    """Textbook LSTM step on *unprepared* ``[i, f, g, o]`` parameters.

    Takes and returns what ``fastpath.lstm_cell_permuted`` does (without
    the activations), but shares nothing with it: no permutation, no
    halving, ``expit`` for the logistic.
    """
    hs = hidden_size
    gates = x @ w_ih + h_prev @ w_hh + bias
    i_gate = expit(gates[:, :hs])
    f_gate = expit(gates[:, hs : 2 * hs])
    g_gate = np.tanh(gates[:, 2 * hs : 3 * hs])
    o_gate = expit(gates[:, 3 * hs :])
    c_new = f_gate * c_prev + i_gate * g_gate
    return o_gate * np.tanh(c_new), c_new, None


def reference_kernels(monkeypatch) -> None:
    """Swap the logistic and the LSTM step of ``fastpath`` for the references.

    Inference then runs the production orchestration (scans, sampling
    loop, TFT composition) on float64 ``expit`` gates and unprepared
    weights; compare against an unpatched run to ``rtol=1e-12``.
    """
    monkeypatch.setattr(fastpath, "sigmoid", expit)
    monkeypatch.setattr(
        fastpath, "prepare_lstm_params", lambda layer_params, hidden_size, dtype=None: layer_params
    )
    monkeypatch.setattr(fastpath, "lstm_cell_permuted", reference_lstm_cell)
