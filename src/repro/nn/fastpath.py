"""Raw-array kernels: the one forward of every layer.

Each kernel is the only definition of its layer in ``src/``: inference
calls it and drops the activations, training (:mod:`repro.nn.fastgrad`)
keeps them for the closed-form backward.  The reference they are held
to is the autograd tape in ``tests/nn/`` (``oracles.py`` composes every
layer on it): each kernel computes *exactly* the float64 operations of
that composition, in the same order, on plain ndarrays — so results are
bitwise-identical, which the parity suite asserts.

A kernel computes in the dtype of the weights it is handed and never
promotes: float64 parameters give float64 arithmetic, the float32 networks
of the LSTM-scanning forecasters (``forecast/neural.py``) train and serve
on the same code in single precision.  The caller casts a network's inputs
at its entry; scalars are Python floats, so NEP 50 keeps the arrays' dtype.

LayerNorm / GLU / GRN / attention kernels take the layer module
(duck-typed attribute reads — no import of :mod:`repro.nn.layers`) and
always return ``(output, cache)``: the cache fields are references to
arrays the forward computes anyway.  The LSTM keeps its four gates on a
leading axis everywhere — weights ``(4, F, H)``, activations
``(4, B, H)``, time-major scan buffers — so every per-gate pass runs over
a contiguous block; the scan keeps the per-step gates only when handed a
``cache`` list, and the cell then writes them straight into it.

Layers expose their kernel as ``fast_forward`` (the LSTM also as
``fast_step``); hot loops such as DeepAR's ancestral sampling call the
functions here directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "sigmoid",
    "tanh",
    "relu",
    "softplus",
    "softmax",
    "linear_forward",
    "linear",
    "LayerNormCache",
    "layer_norm",
    "GLUCache",
    "glu_forward",
    "GRNCache",
    "grn_forward",
    "prepare_attention_params",
    "AttentionCache",
    "interpretable_attention",
    "gate_permutation",
    "prepare_lstm_params",
    "lstm_cell_permuted",
    "LSTMLayerCache",
    "lstm_forward",
    "lstm_step",
]


# ---------------------------------------------------------------------------
# Elementwise kernels — bitwise-identical to the ops of tests/nn/tensor.py.
# ---------------------------------------------------------------------------
def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic as ``0.5 * tanh(0.5 x) + 0.5``: the one definition in ``src/``.

    The ``softplus`` backward and the test oracle's tape
    (``tests/nn/tensor.py``) call this function, and the LSTM cell
    evaluates the same three operations on pre-halved weights, so tape
    and kernels agree bit for bit.  ``tanh`` saturates
    instead of overflowing: absolute error is within 1 ulp of 1.0
    everywhere and the result is exactly 0 / 1 beyond ``|x|`` ~ 37, so
    *relative* accuracy in the lower tail is given up (docs/nn.md).
    """
    out = np.tanh(x * 0.5)
    out *= 0.5
    out += 0.5
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def relu(x: np.ndarray) -> np.ndarray:
    return x * (x > 0)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)), stable; the oracle tape's ``softplus`` exactly."""
    return np.logaddexp(0.0, x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax of ``x``, normalised in place and returned.

    Same max-subtraction composition as the tape op (``exp(x - max)``
    normalised by its sum), so every element matches bit for bit; the
    subtraction, ``exp`` and division all write ``x`` itself, so no
    score-sized array is allocated.  A caller that keeps its input
    passes a copy.
    """
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


# ---------------------------------------------------------------------------
# Layer kernels
# ---------------------------------------------------------------------------
def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """``x @ W (+ b)`` on raw arrays; same op order as the tape composition."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def linear(layer, x: np.ndarray) -> np.ndarray:
    """A ``Linear`` module's affine map on raw arrays."""
    bias = None if layer.bias is None else layer.bias.data
    return linear_forward(x, layer.weight.data, bias)


@dataclass
class LayerNormCache:
    """Forward activations of one LayerNorm call."""

    normed: np.ndarray  # (x - mu) / std — pre-affine output
    std: np.ndarray  # sqrt(var + eps), keepdims along the last axis


def layer_norm(norm, x: np.ndarray) -> tuple[np.ndarray, LayerNormCache]:
    """LayerNorm over the last axis.

    The mean is computed as ``sum * (1/n)`` — the oracle tape's ``mean``
    composition — not ``np.mean``, so float64 results are bitwise
    identical to it.
    """
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * (1.0 / n)
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    std = np.sqrt(var + norm.eps)
    normed = centered / std
    out = normed * norm.gamma.data + norm.beta.data
    return out, LayerNormCache(normed=normed, std=std)


@dataclass
class GLUCache:
    """Forward activations of one GatedLinearUnit call."""

    x: np.ndarray  # layer input
    gate: np.ndarray  # sigmoid(x W1 + b1)
    value: np.ndarray  # x W2 + b2


def glu_forward(glu, x: np.ndarray) -> tuple[np.ndarray, GLUCache]:
    """GLU(x) = sigmoid(x W1 + b1) * (x W2 + b2) on raw arrays.

    Same gemm/sigmoid/multiply order as its tape composition.
    """
    gate = sigmoid(linear(glu.gate, x))
    value = linear(glu.value, x)
    return gate * value, GLUCache(x=x, gate=gate, value=value)


@dataclass
class GRNCache:
    """Forward activations of one GatedResidualNetwork call."""

    x: np.ndarray  # layer input
    tanh_out: np.ndarray  # tanh(fc1(x))
    glu: GLUCache
    norm: LayerNormCache


def grn_forward(grn, x: np.ndarray) -> tuple[np.ndarray, GRNCache]:
    """Gated Residual Network forward.

    fc1 -> tanh -> fc2 -> GLU -> (projected) residual -> LayerNorm, op
    for op the tape composition.
    """
    tanh_out = np.tanh(linear(grn.fc1, x))
    gated, glu_cache = glu_forward(grn.glu, linear(grn.fc2, tanh_out))
    residual = x if grn.skip is None else linear(grn.skip, x)
    out, norm_cache = layer_norm(grn.norm, residual + gated)
    return out, GRNCache(x=x, tanh_out=tanh_out, glu=glu_cache, norm=norm_cache)


def prepare_attention_params(
    head_params: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-head ``(weight, bias)`` pairs along the output axis.

    Each gemm output column is an independent dot product, so running
    all heads' query (or key) projections as one ``(d_model, H*d_head)``
    matmul produces bitwise-identical columns to H separate per-head
    gemms — the same argument as the LSTM gate permutation.  Prepared
    per call, not cached: optimizers update the arrays in place.
    """
    w_cat = np.concatenate([w for w, _ in head_params], axis=1)
    b_cat = np.concatenate([b for _, b in head_params])
    return w_cat, b_cat


@dataclass
class AttentionCache:
    """Forward activations of one InterpretableMultiHeadAttention call."""

    query: np.ndarray  # (B, Tq, d_model)
    key: np.ndarray  # (B, Tk, d_model)
    value: np.ndarray  # (B, Tk, d_model)
    w_q: np.ndarray  # concatenated per-head query weights (d_model, H*dh)
    w_k: np.ndarray
    q_heads: np.ndarray  # (H, B, Tq, dh)
    k_heads: np.ndarray  # (H, B, Tk, dh)
    v: np.ndarray  # shared value projection (B, Tk, dh)
    weights: np.ndarray  # per-head softmax (H, B, Tq, Tk)
    mean_weights: np.ndarray  # head average (B, Tq, Tk)
    mean_heads: np.ndarray  # head-averaged context (B, Tq, dh)


def interpretable_attention(
    attn,
    query: np.ndarray,
    key: np.ndarray,
    value: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, AttentionCache]:
    """Interpretable multi-head attention on raw arrays.

    Per-head query/key projections run as single concatenated gemms
    (:func:`prepare_attention_params`); the value projection is shared
    across heads (TFT Sec. 4.4).  Returns ``(output (B, Tq, d_model),
    mean attention (B, Tq, Tk), cache)``.

    Heads are stacked on a leading axis so the score and context matmuls
    run as single H*B-batched gemms instead of a Python loop over heads;
    each 2-D slice is the same gemm the tape's per-head loop issues, and
    the head average is ``sum * (1/H)`` exactly like the tape's
    ``stack(...).mean(axis=0)`` — so float64 outputs (and the attention
    pattern) are bitwise-identical to the tape composition.
    """
    w_q, b_q = prepare_attention_params([(p.weight.data, p.bias.data) for p in attn._q_projs])
    w_k, b_k = prepare_attention_params([(p.weight.data, p.bias.data) for p in attn._k_projs])
    num_heads, d_head = attn.num_heads, attn.d_head
    batch, t_query, _ = query.shape
    t_key = key.shape[1]
    q_all = linear_forward(query, w_q, b_q)  # (B, Tq, H*dh)
    k_all = linear_forward(key, w_k, b_k)  # (B, Tk, H*dh)
    v = linear(attn.v_proj, value)  # (B, Tk, dh)
    # Heads-first contiguous stacking: each (h, b) slice is then the
    # exact 2-D gemm the per-head tape loop performs.
    q_heads = np.ascontiguousarray(
        np.moveaxis(q_all.reshape(batch, t_query, num_heads, d_head), 2, 0)
    )
    k_heads = np.ascontiguousarray(
        np.moveaxis(k_all.reshape(batch, t_key, num_heads, d_head), 2, 0)
    )
    # Scale, mask and normalise in place on the gemm result: at the training
    # shape each fresh (H, B, Tq, Tk) float32 temporary is 5 MiB.  float(): a
    # strong-typed np.float64 scalar would run the float32 scaling in float64
    # under NEP 50.
    scores = q_heads @ np.swapaxes(k_heads, -1, -2)
    scores *= 1.0 / float(np.sqrt(d_head))
    if mask is not None:
        scores += mask.astype(scores.dtype, copy=False)  # the shared mask is float64
    weights = softmax(scores, axis=-1)  # (H, B, Tq, Tk), the one score buffer
    heads = weights @ v  # value broadcast across the head axis
    mean_heads = heads.sum(axis=0)
    mean_heads *= 1.0 / num_heads
    mean_weights = weights.sum(axis=0)
    mean_weights *= 1.0 / num_heads
    out = linear(attn.out_proj, mean_heads)
    cache = AttentionCache(
        query=query, key=key, value=value, w_q=w_q, w_k=w_k,
        q_heads=q_heads, k_heads=k_heads, v=v, weights=weights,
        mean_weights=mean_weights, mean_heads=mean_heads,
    )
    return out, mean_weights, cache


_CELL_GATE_ORDER = np.array([0, 1, 3, 2])  # standard [i, f, g, o] blocks in cell order [i, f, o, g]


def gate_permutation(hidden_size: int) -> np.ndarray:
    """Column permutation mapping [i, f, g, o] to [i, f, o, g].

    It swaps the g and o blocks and is therefore its own inverse —
    applying it to a permuted gradient returns the standard layout.
    """
    return np.arange(4 * hidden_size).reshape(4, hidden_size)[_CELL_GATE_ORDER].ravel()


def prepare_lstm_params(
    layer_params: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    hidden_size: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Cell-ready gate weights: gates first, [i, f, o, g], sigmoid blocks halved.

    Each standard ``(..., 4 * hidden)`` parameter, ``[i, f, g, o]``
    column blocks, becomes one contiguous block per gate on a *leading*
    axis — ``w_ih (4, F, H)``, ``w_hh (4, H, H)``, ``bias (4, 1, H)`` —
    so every per-gate pass of the cell runs over a whole array, never a
    column slice of a ``(B, 4H)`` buffer.  ``np.matmul`` on the stacked
    weights issues the four per-gate 2-D gemms: each output element is
    the same dot product as in the fused ``(B, F) @ (F, 4H)`` gemm
    (bit-identical to it whenever ``hidden % 8 == 0``, docs/nn.md).

    With the sigmoid blocks scaled by 0.5, a cell step needs one
    ``tanh`` over the ``(4, B, H)`` block (:func:`sigmoid` is
    ``0.5 * tanh(0.5 x) + 0.5``); 0.5 is a power of two, so
    ``x @ (0.5 W) == 0.5 * (x @ W)`` bit for bit.

    Prepared per call, not cached: optimizers update parameter arrays in
    place, so a cache keyed on array identity would go stale.
    """
    prepared = []
    for params in layer_params:
        cell_ready = []
        for param in params:
            # (rows, 4H) -> (4, rows, H), one copy: blocks [i, f, g, o] picked
            # in cell order off a gates-first view; a bias has one row.
            blocks = param.reshape(-1, 4, hidden_size).transpose(1, 0, 2)
            stacked = np.ascontiguousarray(blocks[_CELL_GATE_ORDER])
            stacked[:3] *= 0.5
            cell_ready.append(stacked)
        prepared.append(tuple(cell_ready))
    return prepared


def lstm_cell_permuted(
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    bias: np.ndarray,
    out: tuple[np.ndarray | None, ...] = (None, None, None, None),
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One LSTM step on :func:`prepare_lstm_params` weights (gates first, i/f/o halved).

    Pre-activations are associated as ``(x @ w_ih + h @ w_hh) + bias``
    like the tape composition of the cell, in one ``(4, B, H)`` buffer.
    On halved weights the i/f/o blocks are ``0.5 *`` their
    pre-activation, so one in-place ``tanh`` over the buffer, then
    ``* 0.5 + 0.5`` on its first three blocks, is :func:`sigmoid` on the
    sigmoid gates and ``tanh`` on the cell gate — bitwise equal to the
    tape on the standard layout.  ``bias`` is ``(4, 1, H)`` as prepared
    or already tiled to ``(4, B, H)`` (a scan tiles it once: the add is
    then one contiguous pass).

    ``out`` optionally names where ``(h_new, c_new, gates, tanh_c)`` are
    written — rows of a scan's time-major buffers — with ``None`` for a
    fresh array; the arithmetic is the same either way.  Returns
    ``(h_new, c_new, (ifo, g, tanh_c))``: ``ifo (3, B, H)`` and
    ``g (B, H)`` are the post-activation gates (contiguous blocks of the
    one gate buffer) that :func:`repro.nn.fastgrad.lstm_backward`
    differentiates through.
    """
    h_new, c_new, act, tanh_c = out
    act = np.matmul(x, w_ih, out=act)
    act += np.matmul(h_prev, w_hh)
    act += bias
    np.tanh(act, out=act)
    ifo = act[:3]
    ifo *= 0.5
    ifo += 0.5
    g_gate = act[3]
    c_new = np.multiply(ifo[1], c_prev, out=c_new)
    c_new += ifo[0] * g_gate
    tanh_c = np.tanh(c_new, out=tanh_c)
    h_new = np.multiply(ifo[2], tanh_c, out=h_new)
    return h_new, c_new, (ifo, g_gate, tanh_c)


@dataclass
class LSTMLayerCache:
    """Activations of one LSTM layer's scan, time-major.

    Everything the reverse sweep needs, as whole-sequence buffers the
    cell wrote directly; every per-step slice (``h_seq[t]``,
    ``gates[t]`` and each of its four gate blocks, ...) is contiguous.
    Inputs and the hidden states entering each step feed the final
    weight gemms; gates (``[i, f, o, g]``, post-activation), cell states
    and their tanh feed the per-step delta computation.
    """

    inputs: np.ndarray  # (B, T, F_in) — this layer's input sequence
    h_seq: np.ndarray  # (T + 1, B, H) — row t enters step t, row t + 1 leaves it
    c_seq: np.ndarray  # (T + 1, B, H) — cell states, same indexing
    gates: np.ndarray  # (T, 4, B, H) — [i, f, o, g] post-activation
    tanh_c: np.ndarray  # (T, B, H) — tanh of the new cell state
    w_ih: np.ndarray  # (F_in, 4H) permuted [i, f, o, g], *un*-halved:
    w_hh: np.ndarray  # (H, 4H)    d(pre-activation)/d(input) for the backward gemms


def lstm_forward(
    x: np.ndarray,
    layer_params: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    hidden_size: int,
    state: list[tuple[np.ndarray, np.ndarray]] | None = None,
    cache: list[LSTMLayerCache] | None = None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Multi-layer LSTM scan over a full sequence on raw arrays.

    Parameters
    ----------
    x:
        Input of shape (batch, time, features); cast once to the
        weights' dtype, which the whole scan — buffers, states, outputs
        — runs in.
    layer_params:
        Per-layer ``(w_ih, w_hh, bias)`` arrays in standard gate layout.
    state:
        Optional per-layer ``(h, c)`` arrays of shape (batch, hidden).
    cache:
        A list to receive one :class:`LSTMLayerCache` per layer for
        :func:`repro.nn.fastgrad.lstm_backward`; ``None`` (inference)
        records no gates.  Outputs and final state are bitwise the same
        either way.

    Returns the top layer's hidden sequence ``(batch, time, hidden)`` —
    a transposed view of the time-major buffer the cell writes each
    step's state into, never copied per step — and the final per-layer
    ``(h, c)``, which are copies: they alias neither those buffers nor
    the caller's ``state``.
    """
    work = layer_params[0][0].dtype
    x = x.astype(work, copy=False)
    batch, steps, _ = x.shape
    hs = hidden_size
    if state is None:
        state = [(0.0, 0.0)] * len(layer_params)

    layer_input = x
    final_state = []
    for (raw_w_ih, raw_w_hh, _), (w_ih, w_hh, bias), (h0, c0) in zip(
        layer_params, prepare_lstm_params(layer_params, hs), state, strict=True
    ):
        bias = np.repeat(bias, batch, axis=1)  # (4, B, H): one contiguous add per step
        steps_in = np.swapaxes(layer_input, 0, 1)  # (T, B, F_in) view
        h_seq = np.empty((steps + 1, batch, hs), dtype=work)
        c_seq = np.empty((steps + 1, batch, hs), dtype=work)
        h_seq[0], c_seq[0] = h0, c0
        if cache is None:
            gates = tanh_c = [None] * steps  # the cell keeps neither
        else:
            gates = np.empty((steps, 4, batch, hs), dtype=work)
            tanh_c = np.empty((steps, batch, hs), dtype=work)
        for t in range(steps):
            lstm_cell_permuted(
                steps_in[t], h_seq[t], c_seq[t], w_ih, w_hh, bias,
                (h_seq[t + 1], c_seq[t + 1], gates[t], tanh_c[t]),
            )
        if cache is not None:
            # The backward's deltas are w.r.t. the full pre-activations:
            # weights permuted like the gates, not halved.
            perm = gate_permutation(hs)
            cache.append(
                LSTMLayerCache(
                    inputs=layer_input, h_seq=h_seq, c_seq=c_seq, gates=gates, tanh_c=tanh_c,
                    w_ih=np.ascontiguousarray(raw_w_ih[:, perm]),
                    w_hh=np.ascontiguousarray(raw_w_hh[:, perm]),
                )
            )
        final_state.append((h_seq[steps].copy(), c_seq[steps].copy()))
        layer_input = np.swapaxes(h_seq[1:], 0, 1)
    return layer_input, final_state


def lstm_step(
    x: np.ndarray,
    layer_params: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    hidden_size: int,
    state: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Advance a multi-layer LSTM one timestep: :func:`lstm_forward` at length one.

    ``x`` has shape (batch, features); returns the top layer's hidden
    state and the updated per-layer state.  Hot loops instead run
    :func:`prepare_lstm_params` once and call :func:`lstm_cell_permuted`
    per layer (as DeepAR's ancestral sampling does).
    """
    outputs, state = lstm_forward(x[:, None, :], layer_params, hidden_size, state)
    return outputs[:, 0], state
