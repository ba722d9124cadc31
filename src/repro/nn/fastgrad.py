"""Analytic training kernels: closed-form backwards and loss gradients.

:mod:`repro.nn.fastpath` holds the one raw-array forward of every hot
layer and hands back the activations it computed; this module holds what
differentiates through them.  For every loss the neural forecasters
train on — the teacher-forced LSTM/MLP likelihoods, the TFT's
attention/LayerNorm/GRN quantile loss, the grid heads' pinball loss and
the QB5000 LSTM's MSE — the gradients are known in closed form, so the
whole backward pass collapses into a handful of fused numpy sweeps:

* **LSTM BPTT** — a single reverse sweep over the scan's cached
  activations (:func:`fastpath.lstm_forward` with ``cache=``; time-major,
  one contiguous block per gate and step) that accumulates per-step gate
  deltas into a ``(batch, time, 4*hidden)`` buffer.  The weight
  gradients ``dW_ih / dW_hh / db`` then fall out of
  *one* matmul each over the flattened ``(batch*time)`` axis — instead
  of the thousands of micro-ops (slice, sigmoid-backward, outer-product
  accumulate, ...) an autograd tape replays per timestep.
* **Head kernels** — linear/activation backwards and closed-form
  gradients of the Gaussian and Student-t negative log-likelihoods
  (the ``df`` gradient differentiates the same shifted-Stirling
  ``log Gamma`` series the forward evaluates, so the optimised
  objective is exactly the reported one).
* **Attention / LayerNorm / GLU / GRN** — the softmax Jacobian-vector
  product ``dx = s * (dout - sum(dout * s))``, LayerNorm's fused
  mean/variance backward, and the GLU/GRN chain with the residual and
  gate paths folded together.  Because the shared value projection and
  the head average make every head's output gradient identical, the
  attention backward needs one score-gradient batch and a handful of
  whole-sequence gemms.
* **Quantile (pinball) loss** — the subgradient is a sign test per
  quantile level, with both indicators firing at the kink.

This is the only way a gradient is computed in ``src/``:
``NeuralForecaster.fit`` trains every forecaster through these kernels.
The reference is the autograd tape kept in ``tests/nn/`` (``tensor.py``,
``functional.py``, compositions in ``oracles.py``).  Backward values are
mathematically identical to it but summed in a different order, so
individual gradients agree to ~1e-12 relative rather than bit for bit;
the parity suite (``tests/nn/test_fastgrad.py``,
``test_tft_fastgrad.py``) checks every kernel against both finite
differences and the tape.
"""

from __future__ import annotations

import numpy as np

from . import fastpath
from .fastpath import gate_permutation

__all__ = [
    "accumulate_grad",
    "gate_permutation",
    "linear_backward",
    "relu_backward",
    "softplus_backward",
    "log_gamma",
    "digamma",
    "gaussian_nll_grads",
    "student_t_nll_grads",
    "quantile_loss_grads",
    "softmax_backward",
    "layer_norm_backward",
    "glu_backward",
    "grn_backward",
    "attention_backward",
    "lstm_backward",
]


def accumulate_grad(param, grad: np.ndarray) -> None:
    """Add ``grad`` into a Parameter's ``.grad`` buffer, creating it if unset.

    Shapes already match, so no unbroadcasting is needed; the optimizer
    and ``clip_grad_norm`` read the buffer from there.
    """
    if param.grad is None:
        param.grad = np.ascontiguousarray(grad)
    else:
        param.grad += grad


# ---------------------------------------------------------------------------
# Elementwise / dense backward kernels
# ---------------------------------------------------------------------------
def linear_backward(
    x: np.ndarray, weight: np.ndarray, dout: np.ndarray, need_dx: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Backward of ``y = x @ W + b`` for ``x`` of shape (..., in).

    Returns ``(dx, dW, db)``; leading axes of ``x``/``dout`` are
    flattened for the weight gradient so a (batch, time, features)
    sequence costs one gemm, not time-many.
    """
    in_features = weight.shape[0]
    out_features = weight.shape[1]
    x2 = x.reshape(-1, in_features)
    d2 = dout.reshape(-1, out_features)
    dw = x2.T @ d2
    db = d2.sum(axis=0)
    dx = (d2 @ weight.T).reshape(x.shape) if need_dx else None
    return dx, dw, db


def relu_backward(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """d/dx relu from the forward *input* (gradient zero at x <= 0)."""
    return dout * (x > 0)


def softplus_backward(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """d/dx softplus = sigmoid(x), using the stable fastpath sigmoid."""
    return dout * fastpath.sigmoid(x)


def softmax_backward(out: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Softmax Jacobian-vector product from the forward *output*.

    For ``s = softmax(x)`` along the last axis,
    ``dx = s * (dout - sum(dout * s, axis=-1))`` — the full Jacobian
    ``diag(s) - s s^T`` contracted with ``dout`` without materialising
    it.  (The forward's max-subtraction shift cancels in the quotient,
    so no extra term appears.)  ``dout`` may broadcast against ``out``;
    one full-size temporary carries the product, the difference and the
    result in turn.
    """
    tmp = dout * out
    total = tmp.sum(axis=-1, keepdims=True)
    np.subtract(dout, total, out=tmp)
    tmp *= out
    return tmp


# ---------------------------------------------------------------------------
# Likelihood kernels
# ---------------------------------------------------------------------------
# A Python float, so it stays weak under NEP 50: a strong np.float64 here
# would run a float32 loss in float64.
_HALF_LOG_2PI = float(0.5 * np.log(2.0 * np.pi))


def log_gamma(x: np.ndarray) -> np.ndarray:
    """log Gamma via a shifted Stirling series, accurate to ~1e-7 for
    ``x >= 0.5`` — the ``df / 2`` values a softplus head produces."""
    shifted = x + 2.0
    correction = np.log(x) + np.log(x + 1.0)
    series = (
        (shifted - 0.5) * np.log(shifted)
        - shifted
        + _HALF_LOG_2PI
        + 1.0 / (shifted * 12.0)
        - 1.0 / (shifted * shifted * shifted * 360.0)
    )
    return series - correction


def digamma(x: np.ndarray) -> np.ndarray:
    """Exact derivative of :func:`log_gamma` (not of the true digamma).

    Differentiating the approximation itself means the gradient is
    exactly that of the loss the forward reports: for
    ``s = x + 2``,

    ``d/dx log_gamma(x) = log s - 1/(2s) - 1/(12 s^2) + 1/(120 s^4)
    - 1/x - 1/(x+1)``.
    """
    s = x + 2.0
    s2 = s * s
    return (
        np.log(s)
        - 0.5 / s
        - 1.0 / (12.0 * s2)
        + 1.0 / (120.0 * s2 * s2)
        - 1.0 / x
        - 1.0 / (x + 1.0)
    )


def gaussian_nll_grads(
    mean: np.ndarray, std: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean Gaussian NLL and its gradients w.r.t. ``mean`` and ``std``.

    ``mean(0.5 log var + (y - mu)^2 / (2 var)) + 0.5 log 2 pi`` — the
    terms of the tape reference ``tests/nn/functional.py::gaussian_nll``,
    which averages as ``sum * (1/n)`` where this uses ``np.mean``, so
    the two values agree to an ulp rather than bit for bit.
    """
    var = std * std
    diff = target - mean
    loss = float(np.mean(0.5 * np.log(var) + diff * diff / (var * 2.0))) + _HALF_LOG_2PI
    n = mean.size
    dmean = -diff / var / n
    dstd = (1.0 / std - diff * diff / (var * std)) / n
    return loss, dmean, dstd


def student_t_nll_grads(
    mean: np.ndarray, scale: np.ndarray, df: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean Student-t NLL and gradients w.r.t. ``mean``, ``scale``, ``df``.

    Forward replicates the tape reference
    ``tests/nn/functional.py::student_t_nll`` (with the same Stirling
    ``log Gamma``; ``np.mean`` against its ``sum * (1/n)``, so equal to
    an ulp); the gradients are the closed forms

    * ``dL/dmu    = -(nu+1) z / (s (nu + z^2)) / N``
    * ``dL/ds     = (1 - (nu+1) z^2 / (nu + z^2)) / s / N``
    * ``dL/dnu    = [psi(nu/2) - psi((nu+1)/2)] / 2 + 1/(2 nu)
      + log(1 + z^2/nu)/2 - (nu+1) z^2 / (2 nu (nu + z^2)) / 1 / N``

    with ``z = (y - mu)/s`` and ``psi`` the derivative of the same
    approximation (:func:`digamma`).
    """
    z = (target - mean) / scale
    z2 = z * z
    nu = df
    kernel = z2 / nu + 1.0  # (nu + z^2) / nu
    log_norm = (
        log_gamma((nu + 1.0) * 0.5)
        - log_gamma(nu * 0.5)
        - np.log(nu * np.pi) * 0.5
        - np.log(scale)
    )
    log_kernel = np.log(kernel) * ((nu + 1.0) * (-0.5))
    loss = float(-np.mean(log_norm + log_kernel))

    n = mean.size
    denom = nu + z2
    dmean = -(nu + 1.0) * z / (denom * scale) / n
    dscale = (1.0 - (nu + 1.0) * z2 / denom) / scale / n
    ddf = (
        0.5 * (digamma(nu * 0.5) - digamma((nu + 1.0) * 0.5))
        + 0.5 / nu
        + 0.5 * np.log(kernel)
        - 0.5 * (nu + 1.0) * z2 / (nu * denom)
    ) / n
    return loss, dmean, dscale, ddf


def quantile_loss_grads(
    predictions: np.ndarray, target: np.ndarray, quantiles: list[float]
) -> tuple[float, np.ndarray]:
    """Total pinball loss (Eq. 2) and its gradient w.r.t. ``predictions``.

    ``predictions`` has a trailing quantile axis; ``target`` broadcasts
    against one quantile slice.  The forward replicates the tape
    reference ``tests/nn/functional.py::quantile_loss`` term for term
    (per-level elementwise pinball, ``mean`` as ``sum * (1/n)``, levels
    accumulated in grid order) so float64 loss values are
    bitwise-identical to it.

    The pinball subgradient per level ``tau`` with ``diff = y - yhat``:

    ``dL/dyhat = ((diff <= 0) * (1 - tau) - (diff >= 0) * tau) / n``

    At the kink (``diff == 0``) *both* indicators fire — exactly the
    reference's ``maximum`` tie rule, where each ``maximum(·, 0)`` routes
    the gradient to its first argument on ties.
    """
    loss = 0.0
    dpred = np.empty_like(predictions)
    for index, tau in enumerate(quantiles):
        diff = target - predictions[..., index]
        pos = np.where(diff >= 0, diff, 0.0)
        neg = np.where(-diff >= 0, -diff, 0.0)
        term = float((pos * tau + neg * (1.0 - tau)).sum() * (1.0 / diff.size))
        loss = term if index == 0 else loss + term
        # the indicators enter in the predictions' dtype, not as float64 temporaries
        below = np.multiply(diff <= 0, 1.0 - tau, dtype=diff.dtype)
        dpred[..., index] = (below - np.multiply(diff >= 0, tau, dtype=diff.dtype)) / diff.size
    return loss, dpred


# ---------------------------------------------------------------------------
# TFT building-block kernels (LayerNorm / GLU / GRN / attention)
#
# These take the layer *module* (duck-typed — no import of repro.nn.layers,
# so no circular dependency) and accumulate weight gradients straight into
# ``param.grad`` like the DeepAR composition does, returning only the input
# gradient the caller must keep chaining.
# ---------------------------------------------------------------------------
def layer_norm_backward(norm, cache: fastpath.LayerNormCache, dout: np.ndarray) -> np.ndarray:
    """Closed-form LayerNorm backward; accumulates ``gamma``/``beta`` grads.

    With ``y = (x - mu)/std`` and ``std = sqrt(var + eps)`` (variance
    computed against the same ``mu``), the fused input gradient is

    ``dx = (dn - mean(dn) - y * mean(dn * y)) / std``,  ``dn = dout * gamma``

    — the mean/variance chain collapsed into two row means.  The ``eps``
    inside the square root is absorbed exactly (no approximation).
    """
    normed = cache.normed
    width = normed.shape[-1]
    dn = dout * norm.gamma.data
    flat = (dout * normed).reshape(-1, width)
    accumulate_grad(norm.gamma, flat.sum(axis=0))
    accumulate_grad(norm.beta, dout.reshape(-1, width).sum(axis=0))
    dn_mean = dn.sum(axis=-1, keepdims=True) * (1.0 / width)
    proj = (dn * normed).sum(axis=-1, keepdims=True) * (1.0 / width)
    return (dn - dn_mean - normed * proj) / cache.std


def glu_backward(
    glu, cache: fastpath.GLUCache, dout: np.ndarray, need_dx: bool = True
) -> np.ndarray | None:
    """GLU backward: sigmoid and value branches fused into two gemms each."""
    dgate_pre = (dout * cache.value) * cache.gate * (1.0 - cache.gate)
    dvalue = dout * cache.gate
    dx_gate, dw_gate, db_gate = linear_backward(
        cache.x, glu.gate.weight.data, dgate_pre, need_dx=need_dx
    )
    accumulate_grad(glu.gate.weight, dw_gate)
    accumulate_grad(glu.gate.bias, db_gate)
    dx_value, dw_value, db_value = linear_backward(
        cache.x, glu.value.weight.data, dvalue, need_dx=need_dx
    )
    accumulate_grad(glu.value.weight, dw_value)
    accumulate_grad(glu.value.bias, db_value)
    if not need_dx:
        return None
    return dx_gate + dx_value


def grn_backward(grn, cache: fastpath.GRNCache, dout: np.ndarray) -> np.ndarray:
    """GRN backward: LayerNorm, GLU, tanh, and the residual branch
    chained on the cached activations; returns the input grad."""
    dsum = layer_norm_backward(grn.norm, cache.norm, dout)
    dhidden = glu_backward(grn.glu, cache.glu, dsum)
    dtanh, dw_fc2, db_fc2 = linear_backward(
        cache.tanh_out, grn.fc2.weight.data, dhidden
    )
    accumulate_grad(grn.fc2.weight, dw_fc2)
    accumulate_grad(grn.fc2.bias, db_fc2)
    dfc1 = dtanh * (1.0 - cache.tanh_out * cache.tanh_out)
    dx, dw_fc1, db_fc1 = linear_backward(cache.x, grn.fc1.weight.data, dfc1)
    accumulate_grad(grn.fc1.weight, dw_fc1)
    accumulate_grad(grn.fc1.bias, db_fc1)
    if grn.skip is None:
        dx = dx + dsum  # identity residual
    else:
        dx_skip, dw_skip, _ = linear_backward(cache.x, grn.skip.weight.data, dsum)
        accumulate_grad(grn.skip.weight, dw_skip)
        dx = dx + dx_skip
    return dx


def attention_backward(
    attn, cache: fastpath.AttentionCache, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interpretable-attention backward on the cached forward.

    The structure collapses nicely: the head average hands every head
    the *same* output gradient ``dmean/H``, and the value projection is
    shared, so

    * ``dV = mean_weights^T @ dmean`` (one batched gemm — the per-head
      sum telescopes into the already-averaged attention pattern), and
    * the pre-softmax weight gradient is the same for every head; only
      the softmax JVP (which uses each head's own weights) splits per
      head, followed by one ``(H*B)``-batched gemm pair for dQ/dK.

    Weight gradients accumulate into the per-head Q/K projections (by
    slicing the concatenated gemm gradient), the shared value
    projection, and the output head.  Returns ``(dquery, dkey,
    dvalue)``.
    """
    num_heads = attn.num_heads
    d_head = attn.d_head
    batch, t_query, _ = cache.query.shape
    t_key = cache.key.shape[1]
    dmean, dw_out, db_out = linear_backward(
        cache.mean_heads, attn.out_proj.weight.data, dout
    )
    accumulate_grad(attn.out_proj.weight, dw_out)
    accumulate_grad(attn.out_proj.bias, db_out)
    dheads = dmean * (1.0 / num_heads)  # identical for every head
    dv = np.swapaxes(cache.mean_weights, -1, -2) @ dmean
    dweights = dheads @ np.swapaxes(cache.v, -1, -2)  # shared across heads
    dscores = softmax_backward(cache.weights, dweights)
    dscores *= 1.0 / float(np.sqrt(d_head))  # weak, as in the forward
    dq_heads = dscores @ cache.k_heads  # (H, B, Tq, dh)
    dk_heads = np.swapaxes(dscores, -1, -2) @ cache.q_heads  # (H, B, Tk, dh)
    dq_all = np.moveaxis(dq_heads, 0, 2).reshape(batch, t_query, num_heads * d_head)
    dk_all = np.moveaxis(dk_heads, 0, 2).reshape(batch, t_key, num_heads * d_head)
    dquery, dw_q, db_q = linear_backward(cache.query, cache.w_q, dq_all)
    dkey, dw_k, db_k = linear_backward(cache.key, cache.w_k, dk_all)
    for head, (q_proj, k_proj) in enumerate(zip(attn._q_projs, attn._k_projs)):
        cols = slice(head * d_head, (head + 1) * d_head)
        accumulate_grad(q_proj.weight, dw_q[:, cols])
        accumulate_grad(q_proj.bias, db_q[cols])
        accumulate_grad(k_proj.weight, dw_k[:, cols])
        accumulate_grad(k_proj.bias, db_k[cols])
    dvalue, dw_v, db_v = linear_backward(cache.value, attn.v_proj.weight.data, dv)
    accumulate_grad(attn.v_proj.weight, dw_v)
    accumulate_grad(attn.v_proj.bias, db_v)
    return dquery, dkey, dvalue


# ---------------------------------------------------------------------------
# Fused LSTM BPTT
# ---------------------------------------------------------------------------
def lstm_backward(
    dout: np.ndarray,
    caches: list[fastpath.LSTMLayerCache],
    hidden_size: int,
    need_dx: bool = False,
    dstate: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[
    list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    np.ndarray | None,
    list[tuple[np.ndarray, np.ndarray]],
]:
    """Fused BPTT through every layer of a cached :func:`fastpath.lstm_forward`.

    ``dout`` is the loss gradient w.r.t. the top layer's hidden sequence
    ``(batch, time, hidden)``; ``dstate`` optionally adds the loss
    gradient w.r.t. each layer's *final* ``(h, c)`` — this is how the
    TFT decoder's initial-state gradient flows back into the encoder.
    Returns per-layer standard-layout ``(dW_ih, dW_hh, db)`` gradients
    (ready for :meth:`repro.nn.rnn.LSTM.accumulate_grads`), the gradient
    w.r.t. the bottom layer's input when ``need_dx``, and the per-layer
    gradient w.r.t. the *initial* ``(h, c)`` state (the reverse sweep's
    carries after step 0 — free to return, and exactly what a chained
    :func:`lstm_backward` upstream consumes as its ``dstate``).

    The reverse time sweep only computes the per-step gate deltas and
    the two recurrences (``dh`` through ``W_hh``, ``dc`` through the
    forget gate); all weight gradients are deferred to three
    whole-sequence matmuls at the end.
    """
    hs = hidden_size
    perm = gate_permutation(hs)
    grads: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [None] * len(caches)  # type: ignore[list-item]
    dstate0: list[tuple[np.ndarray, np.ndarray]] = [None] * len(caches)  # type: ignore[list-item]
    dh_seq = dout
    dx: np.ndarray | None = None
    for layer in range(len(caches) - 1, -1, -1):
        cache = caches[layer]
        batch, steps, _ = cache.inputs.shape
        # Follow the forward's precision: float32 caches get a float32
        # reverse sweep (for float64 this allocates exactly as before).
        work = cache.gates.dtype
        dz = np.empty((batch, steps, 4 * hs), dtype=work)
        if dstate is None:
            dh_carry = np.zeros((batch, hs), dtype=work)
            dc_carry = np.zeros((batch, hs), dtype=work)
        else:
            dh_carry = np.asarray(dstate[layer][0], dtype=work)
            dc_carry = np.asarray(dstate[layer][1], dtype=work)
        w_hh_t = cache.w_hh.T
        for t in range(steps - 1, -1, -1):
            i, f, o, g = cache.gates[t]  # contiguous (B, H) blocks
            tc = cache.tanh_c[t]
            dh = dh_seq[:, t] + dh_carry
            do = dh * tc
            dc = dc_carry + dh * o * (1.0 - tc * tc)
            # dz stays batch-major so the whole-sequence gemms below sum
            # their (b, t) rows in the order they always have.
            dz_t = dz[:, t]
            dz_t[:, :hs] = (dc * g) * i * (1.0 - i)
            dz_t[:, hs : 2 * hs] = (dc * cache.c_seq[t]) * f * (1.0 - f)
            dz_t[:, 2 * hs : 3 * hs] = do * o * (1.0 - o)
            dz_t[:, 3 * hs :] = (dc * i) * (1.0 - g * g)
            dh_carry = dz_t @ w_hh_t
            dc_carry = dc * f
        # After the t = 0 iteration the carries *are* d(h0)/d(c0).
        dstate0[layer] = (dh_carry, dc_carry)
        dz2 = dz.reshape(-1, 4 * hs)
        in_features = cache.inputs.shape[-1]
        # reshape copies a time-major sequence into (b, t) row order.
        h_prev = np.swapaxes(cache.h_seq[:-1], 0, 1).reshape(-1, hs)
        dw_ih = cache.inputs.reshape(-1, in_features).T @ dz2
        dw_hh = h_prev.T @ dz2
        db = dz2.sum(axis=0)
        # Forward used permuted columns; the involution maps back to the
        # standard [i, f, g, o] parameter layout.
        grads[layer] = (dw_ih[:, perm], dw_hh[:, perm], db[perm])
        if layer > 0 or need_dx:
            dx = (dz2 @ cache.w_ih.T).reshape(batch, steps, in_features)
            dh_seq = dx
        else:
            dx = None
    return grads, dx, dstate0
