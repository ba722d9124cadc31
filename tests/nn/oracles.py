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
helpers below run whole algorithms that way.  DeepAR, TFT and QB5000's LSTM
train and serve in float32; :func:`float64_serving` is the one route by which
a test fits or predicts with a float64 network of such a family - the
arithmetic the tape sees.

Tape and kernels share one logistic (``fastpath.sigmoid``) and the cell
runs on pre-halved weights, so their parity cannot catch a mistake in
that trick.  :func:`reference_lstm_cell` is the oracle independent of
it - textbook ``[i, f, g, o]`` order, ``scipy.special.expit`` gates -
and :func:`reference_kernels` runs whole forecasters on it.  The kernel
as it was before the gates moved to a leading axis - one ``(B, 4H)``
buffer, column-block slices, batch-major cache - is kept at the bottom
(``fused_*``) as the oracle of that move.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from functools import singledispatch

import numpy as np
from scipy.special import expit

from repro.forecast.deepar import _MIN_DF, _MIN_SCALE, DeepARForecaster, _DeepARNetwork
from repro.forecast.features import NUM_CALENDAR_FEATURES, calendar_window
from repro.forecast.mlp import MLPForecaster, _MLPNetwork
from repro.forecast.qb5000 import _LSTMPointForecaster, _LSTMPointNetwork
from repro.forecast.quantile_regression import MLPQuantileForecaster, _MLPGridNetwork
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
    gated = forward(grn.glu, hidden)
    residual = forward(grn.skip, x) if grn.skip is not None else x
    return forward(grn.norm, residual + gated)


@forward.register
def _(cell: LSTMCell, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """One step: x (batch, input_size), state (h, c) each (batch, hidden_size).

    Stated the way production computes it: each gate's pre-activation is
    its own product on a contiguous copy of that gate's columns of the
    *standard* ``[i, f, g, o]`` parameters - the four 2-D gemms
    ``np.matmul`` issues on the kernel's gates-first weights - so parity
    with ``fastpath`` is bitwise at every hidden size, not only where a
    per-gate gemm happens to round like the fused ``(B, F) @ (F, 4H)``.
    """
    h_prev, c_prev = state
    hs = cell.hidden_size
    w_ih, w_hh, bias = leaf(cell.w_ih), leaf(cell.w_hh), leaf(cell.bias)

    def pre_activation(gate: int) -> Tensor:
        cols = slice(gate * hs, (gate + 1) * hs)
        return x @ w_ih[:, cols].contiguous() + h_prev @ w_hh[:, cols].contiguous() + bias[cols]

    i_gate = pre_activation(0).sigmoid()
    f_gate = pre_activation(1).sigmoid()
    g_gate = pre_activation(2).tanh()
    o_gate = pre_activation(3).sigmoid()
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
        mean = forecaster._window_mean(context)
        context = context - mean
        horizon = horizon - mean
    past, future = forecaster._network_inputs(context, start_indices)
    predictions = forward(forecaster.network, Tensor(past), Tensor(future))  # (B, H, Q)
    return F.quantile_loss(predictions, horizon, list(forecaster.quantile_levels))


@tape_loss.register
def _(forecaster: MLPQuantileForecaster, context, horizon, start_indices) -> Tensor:
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
@contextmanager
def float64_serving(forecaster):
    """``forecaster`` in float64 inside the block, for ``fit`` and ``predict``.

    A family's precision is its ``_network_dtype`` (float32 for the LSTM
    scanners, docs/nn.md, Precision); the block shadows it with float64 on
    this one instance.  A network it already has is widened in place
    (exact), and a cold ``fit`` or a ``load_state_dict`` into an unfitted
    forecaster builds a float64 one through the production cast - the
    arithmetic the tape reproduces bit for bit, and the reference the
    float32 families are held to their error budgets against.  A test
    route, not an option: nothing in ``src/`` selects it.  On exit the
    network is cast back to the family's precision, which gives back the
    very weights a float32 network entered with.
    """
    forecaster._network_dtype = np.dtype(np.float64)
    try:
        if forecaster.network is not None:
            forecaster._in_precision(forecaster.network)
        yield forecaster
    finally:
        del forecaster._network_dtype
        if forecaster.network is not None:
            forecaster._in_precision(forecaster.network)


def as_float32(module):
    """A deep copy of ``module`` with every weight cast to float32 - the kernel
    tests' stand-in for a float32 family's network."""
    module = copy.deepcopy(module)
    for param in module.parameters():
        param.data = param.data.astype(np.float32)
    return module


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
def reference_prepare_lstm_params(layer_params, hidden_size):
    """What the reference cell runs on: shaped like ``fastpath.prepare_lstm_params``
    output - ``(4, F, H)``, ``(4, H, H)``, ``(4, 1, H)`` - but textbook
    inside: gate order ``[i, f, g, o]``, nothing halved."""
    return [
        tuple(
            np.ascontiguousarray(np.moveaxis(p.reshape(-1, 4, hidden_size), 1, 0))
            for p in params
        )
        for params in layer_params
    ]


def reference_lstm_cell(x, h_prev, c_prev, w_ih, w_hh, bias, out=(None, None, None, None)):
    """Textbook LSTM step on :func:`reference_prepare_lstm_params` weights.

    Takes and returns what ``fastpath.lstm_cell_permuted`` does - ``out``
    destinations included, the recorded gates in its ``[i, f, o, g]``
    order - but shares none of its arithmetic: one product per gate, no
    halving, ``expit`` for the logistic.
    """
    i_pre, f_pre, g_pre, o_pre = (x @ w_ih[k] + h_prev @ w_hh[k] + bias[k] for k in range(4))
    gates = np.stack([expit(i_pre), expit(f_pre), expit(o_pre), np.tanh(g_pre)])
    c_new = gates[1] * c_prev + gates[0] * gates[3]
    tanh_c = np.tanh(c_new)
    h_new = gates[2] * tanh_c
    for dest, value in zip(out, (h_new, c_new, gates, tanh_c), strict=True):
        if dest is not None:
            dest[...] = value
    return h_new, c_new, (gates[:3], gates[3], tanh_c)


def reference_kernels(monkeypatch) -> None:
    """Swap the logistic and the LSTM step of ``fastpath`` for the references.

    Inference then runs the production orchestration (scans, sampling
    loop, TFT composition) on float64 ``expit`` gates and unhalved
    textbook-order weights; compare against an unpatched run to
    ``rtol=1e-12``.
    """
    monkeypatch.setattr(fastpath, "sigmoid", expit)
    monkeypatch.setattr(fastpath, "prepare_lstm_params", reference_prepare_lstm_params)
    monkeypatch.setattr(fastpath, "lstm_cell_permuted", reference_lstm_cell)


# ---------------------------------------------------------------------------
# The previous kernel: gates as column blocks of one (B, 4H) buffer
#
# The cell, cached scan and BPTT loop ``src/`` ran before the gates moved to
# a leading axis, kept verbatim as the second oracle: the gates-first
# kernels must reproduce them bit for bit whenever ``hidden % 8 == 0``
# (every configured size), and to the last bit of the pre-activation
# otherwise.
# ---------------------------------------------------------------------------
def fused_prepare_lstm_params(layer_params, hidden_size):
    """``(F, 4H)`` weights with columns ``[i, f, o, g]``, the i / f / o columns halved."""
    hs = hidden_size
    perm = fastpath.gate_permutation(hs)
    prepared = []
    for params in layer_params:
        cell_ready = tuple(np.ascontiguousarray(p[..., perm]) for p in params)
        for array in cell_ready:
            array[..., : 3 * hs] *= 0.5
        prepared.append(cell_ready)
    return prepared


def fused_lstm_cell(x, h_prev, c_prev, w_ih, w_hh, bias, hidden_size):
    """One step on :func:`fused_prepare_lstm_params` weights: one gemm for all four
    gates, every later pass on a column slice.  Returns ``(h_new, c_new,
    (ifo (B, 3H), g (B, H), tanh_c))``."""
    hs = hidden_size
    act = x @ w_ih
    act += h_prev @ w_hh
    act += bias
    np.tanh(act, out=act)
    ifo = act[:, : 3 * hs]
    ifo *= 0.5
    ifo += 0.5
    g_gate = act[:, 3 * hs :]
    c_new = ifo[:, hs : 2 * hs] * c_prev
    c_new += ifo[:, :hs] * g_gate
    tanh_c = np.tanh(c_new)
    h_new = ifo[:, 2 * hs :] * tanh_c
    return h_new, c_new, (ifo, g_gate, tanh_c)


def fused_lstm_forward(x, layer_params, hidden_size):
    """The previous cached scan (float64, zero initial state): batch-major
    ``(B, T, .)`` buffers filled by per-step copies.  Returns ``(outputs,
    state, caches)``, a cache being the dict :func:`fused_lstm_backward` reads."""
    batch, steps, _ = x.shape
    hs = hidden_size
    layer_input, state, caches = x, [], []
    for w_ih, w_hh, bias in fused_prepare_lstm_params(layer_params, hs):
        h, c = np.zeros((batch, hs)), np.zeros((batch, hs))
        outputs = np.empty((batch, steps, hs))
        gates = np.empty((batch, steps, 4 * hs))
        h_prev, c_prev, tanh_c = (np.empty((batch, steps, hs)) for _ in range(3))
        for t in range(steps):
            h_prev[:, t], c_prev[:, t] = h, c
            h, c, (gates[:, t, : 3 * hs], gates[:, t, 3 * hs :], tanh_c[:, t]) = fused_lstm_cell(
                layer_input[:, t, :], h, c, w_ih, w_hh, bias, hs
            )
            outputs[:, t, :] = h
        state.append((h, c))
        w_ih, w_hh = w_ih.copy(), w_hh.copy()
        w_ih[:, : 3 * hs] *= 2.0
        w_hh[:, : 3 * hs] *= 2.0
        caches.append(
            dict(inputs=layer_input, h_prev=h_prev, gates=gates, c_prev=c_prev, tanh_c=tanh_c,
                 w_ih=w_ih, w_hh=w_hh)
        )
        layer_input = outputs
    return layer_input, state, caches


def fused_lstm_backward(dout, caches, hidden_size, need_dx=False):
    """The previous BPTT: the same deltas read through strided
    ``gates[:, t][:, :hs]``-style views of the batch-major cache.  Returns
    what ``fastgrad.lstm_backward`` does."""
    hs = hidden_size
    perm = fastpath.gate_permutation(hs)
    grads, dstate0 = [None] * len(caches), [None] * len(caches)
    dh_seq, dx = dout, None
    for layer in range(len(caches) - 1, -1, -1):
        cache = caches[layer]
        batch, steps, in_features = cache["inputs"].shape
        dz = np.empty((batch, steps, 4 * hs))
        dh_carry, dc_carry = np.zeros((batch, hs)), np.zeros((batch, hs))
        w_hh_t = cache["w_hh"].T
        for t in range(steps - 1, -1, -1):
            gates_t = cache["gates"][:, t]
            i = gates_t[:, :hs]
            f = gates_t[:, hs : 2 * hs]
            o = gates_t[:, 2 * hs : 3 * hs]
            g = gates_t[:, 3 * hs :]
            tc = cache["tanh_c"][:, t]
            dh = dh_seq[:, t] + dh_carry
            do = dh * tc
            dc = dc_carry + dh * o * (1.0 - tc * tc)
            dz_t = dz[:, t]
            dz_t[:, :hs] = (dc * g) * i * (1.0 - i)
            dz_t[:, hs : 2 * hs] = (dc * cache["c_prev"][:, t]) * f * (1.0 - f)
            dz_t[:, 2 * hs : 3 * hs] = do * o * (1.0 - o)
            dz_t[:, 3 * hs :] = (dc * i) * (1.0 - g * g)
            dh_carry = dz_t @ w_hh_t
            dc_carry = dc * f
        dstate0[layer] = (dh_carry, dc_carry)
        dz2 = dz.reshape(-1, 4 * hs)
        dw_ih = cache["inputs"].reshape(-1, in_features).T @ dz2
        dw_hh = cache["h_prev"].reshape(-1, hs).T @ dz2
        db = dz2.sum(axis=0)
        grads[layer] = (dw_ih[:, perm], dw_hh[:, perm], db[perm])
        if layer > 0 or need_dx:
            dx = (dz2 @ cache["w_ih"].T).reshape(batch, steps, in_features)
            dh_seq = dx
        else:
            dx = None
    return grads, dx, dstate0
