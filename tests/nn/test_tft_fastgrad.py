"""Gradient parity for the TFT's analytic training kernels.

Mirrors ``test_fastgrad.py``'s contract for the attention stack: each
closed-form backward (softmax JVP, LayerNorm, GLU, GRN, interpretable
attention, quantile loss) is checked against central finite differences
of its own forward *and* against the autograd tape, then the full
``TFTForecaster._loss_backward`` and an end-to-end fit trajectory are
pinned to the tape (``tests/nn/oracles.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.forecast import TFTForecaster, TrainingConfig
from repro.nn import (
    GatedLinearUnit,
    GatedResidualNetwork,
    InterpretableMultiHeadAttention,
    LayerNorm,
    causal_mask,
    fastgrad,
    fastpath,
)
from tests.nn import functional as F
from tests.nn.oracles import float64_serving, forward, tape_fit, tape_loss_backward
from tests.nn.tensor import Tensor

RNG = np.random.default_rng


def _fd_grad(fn, x, eps=1e-6):
    """Central finite differences of scalar fn at array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def _param_grads(module):
    return {
        n: (None if p.grad is None else p.grad.copy())
        for n, p in module.named_parameters()
    }


def _assert_grads_match(fast, tape, rtol=1e-9, atol=1e-11):
    assert set(fast) == set(tape)
    for name in tape:
        if tape[name] is None:
            assert fast[name] is None, name
        else:
            np.testing.assert_allclose(
                fast[name], tape[name], rtol=rtol, atol=atol, err_msg=name
            )


# ---------------------------------------------------------------------------
# Kernels vs finite differences
# ---------------------------------------------------------------------------
class TestKernelsAgainstFiniteDifferences:
    def test_softmax_backward(self):
        rng = RNG(0)
        x = rng.normal(size=(3, 5))
        proj = rng.normal(size=(3, 5))

        def loss():
            return float((fastpath.softmax(x, axis=-1) * proj).sum())

        grad = fastgrad.softmax_backward(fastpath.softmax(x, axis=-1), proj)
        np.testing.assert_allclose(grad, _fd_grad(loss, x), atol=1e-6)

    def test_softmax_backward_reuses_one_temporary_bitwise(self):
        """In-place form == ``out * (dout - sum(dout * out))``, also when ``dout``
        broadcasts over a leading head axis (the attention backward's call)."""
        rng = RNG(20)
        out = fastpath.softmax(rng.normal(size=(4, 2, 3, 5)), axis=-1)
        for dout in (rng.normal(size=(4, 2, 3, 5)), rng.normal(size=(2, 3, 5))):
            kept_out, kept_dout = out.copy(), dout.copy()
            grad = fastgrad.softmax_backward(out, dout)
            assert np.array_equal(grad, out * (dout - (dout * out).sum(axis=-1, keepdims=True)))
            assert np.array_equal(out, kept_out) and np.array_equal(dout, kept_dout)
            assert not np.shares_memory(grad, out) and not np.shares_memory(grad, dout)

    def test_layer_norm_backward(self):
        norm = LayerNorm(6)
        rng = RNG(1)
        norm.gamma.data[:] = rng.normal(size=6)
        norm.beta.data[:] = rng.normal(size=6)
        x = rng.normal(size=(4, 6))
        proj = rng.normal(size=(4, 6))

        def loss():
            return float((norm.fast_forward(x) * proj).sum())

        norm.zero_grad()
        _, cache = fastpath.layer_norm(norm, x)
        dx = fastgrad.layer_norm_backward(norm, cache, proj)
        np.testing.assert_allclose(dx, _fd_grad(loss, x), atol=1e-6)
        np.testing.assert_allclose(
            norm.gamma.grad, _fd_grad(loss, norm.gamma.data), atol=1e-6
        )
        np.testing.assert_allclose(
            norm.beta.grad, _fd_grad(loss, norm.beta.data), atol=1e-6
        )

    def test_glu_backward(self):
        glu = GatedLinearUnit(5, 4, RNG(2))
        rng = RNG(3)
        x = rng.normal(size=(3, 5))
        proj = rng.normal(size=(3, 4))

        def loss():
            return float((glu.fast_forward(x) * proj).sum())

        glu.zero_grad()
        _, cache = fastpath.glu_forward(glu, x)
        dx = fastgrad.glu_backward(glu, cache, proj)
        np.testing.assert_allclose(dx, _fd_grad(loss, x), atol=1e-6)
        for name, param in glu.named_parameters():
            np.testing.assert_allclose(
                param.grad, _fd_grad(loss, param.data), atol=1e-6, err_msg=name
            )

    @pytest.mark.parametrize("in_features,out_features", [(5, 5), (5, 3)])
    def test_grn_backward(self, in_features, out_features):
        grn = GatedResidualNetwork(in_features, 6, out_features, RNG(4))
        rng = RNG(5)
        x = rng.normal(size=(3, in_features))
        proj = rng.normal(size=(3, out_features))

        def loss():
            return float((grn.fast_forward(x) * proj).sum())

        grn.zero_grad()
        _, cache = fastpath.grn_forward(grn, x)
        dx = fastgrad.grn_backward(grn, cache, proj)
        np.testing.assert_allclose(dx, _fd_grad(loss, x), atol=1e-6)
        for name, param in grn.named_parameters():
            np.testing.assert_allclose(
                param.grad, _fd_grad(loss, param.data), atol=1e-6, err_msg=name
            )

    def test_attention_backward(self):
        attn = InterpretableMultiHeadAttention(6, 2, RNG(6))
        rng = RNG(7)
        query = rng.normal(size=(2, 3, 6))
        key = rng.normal(size=(2, 5, 6))
        value = rng.normal(size=(2, 5, 6))
        proj = rng.normal(size=(2, 3, 6))
        mask = causal_mask(query_len=3, key_len=5)

        def loss():
            out, _ = attn.fast_forward(query, key, value, mask=mask)
            return float((out * proj).sum())

        attn.zero_grad()
        _, _, cache = fastpath.interpretable_attention(
            attn, query, key, value, mask=mask
        )
        dquery, dkey, dvalue = fastgrad.attention_backward(attn, cache, proj)
        np.testing.assert_allclose(dquery, _fd_grad(loss, query), atol=1e-5)
        np.testing.assert_allclose(dkey, _fd_grad(loss, key), atol=1e-5)
        np.testing.assert_allclose(dvalue, _fd_grad(loss, value), atol=1e-5)
        for name, param in attn.named_parameters():
            np.testing.assert_allclose(
                param.grad, _fd_grad(loss, param.data), atol=1e-5, err_msg=name
            )

    def test_quantile_loss_grads(self):
        rng = RNG(8)
        predictions = rng.normal(size=(3, 4, 3))
        target = rng.normal(size=(3, 4))
        quantiles = [0.1, 0.5, 0.9]

        loss, dpred = fastgrad.quantile_loss_grads(predictions, target, quantiles)
        ref = F.quantile_loss(Tensor(predictions), target, quantiles).item()
        assert loss == ref  # bitwise: same composition, same order

        def loss_fn():
            return fastgrad.quantile_loss_grads(predictions, target, quantiles)[0]

        np.testing.assert_allclose(dpred, _fd_grad(loss_fn, predictions), atol=1e-6)


# ---------------------------------------------------------------------------
# Kernels vs the tape
# ---------------------------------------------------------------------------
class TestKernelsAgainstTape:
    @pytest.mark.parametrize("shape", [(4, 6), (2, 5, 6), (1, 1, 6)])
    def test_layer_norm(self, shape):
        norm = LayerNorm(shape[-1])
        rng = RNG(9)
        norm.gamma.data[:] = rng.normal(size=shape[-1])
        x = rng.normal(size=shape)
        proj = rng.normal(size=shape)

        norm.zero_grad()
        xt = Tensor(x, requires_grad=True)
        out = forward(norm, xt)
        (out * Tensor(proj)).sum().backward()
        tape_grads = _param_grads(norm)
        tape_dx = xt.grad.copy()
        tape_out = out.data

        norm.zero_grad()
        fast_out, cache = fastpath.layer_norm(norm, x)
        assert np.array_equal(fast_out, tape_out)  # bitwise forward
        dx = fastgrad.layer_norm_backward(norm, cache, proj)
        np.testing.assert_allclose(dx, tape_dx, rtol=1e-9, atol=1e-11)
        _assert_grads_match(_param_grads(norm), tape_grads)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_glu(self, batch):
        glu = GatedLinearUnit(5, 4, RNG(10))
        rng = RNG(11)
        x = rng.normal(size=(batch, 3, 5))
        proj = rng.normal(size=(batch, 3, 4))

        glu.zero_grad()
        xt = Tensor(x, requires_grad=True)
        out = forward(glu, xt)
        (out * Tensor(proj)).sum().backward()
        tape_grads = _param_grads(glu)
        tape_dx = xt.grad.copy()
        tape_out = out.data

        glu.zero_grad()
        fast_out, cache = fastpath.glu_forward(glu, x)
        assert np.array_equal(fast_out, tape_out)
        dx = fastgrad.glu_backward(glu, cache, proj)
        np.testing.assert_allclose(dx, tape_dx, rtol=1e-9, atol=1e-11)
        _assert_grads_match(_param_grads(glu), tape_grads)

    @pytest.mark.parametrize("in_features,out_features", [(6, 6), (6, 4)])
    def test_grn(self, in_features, out_features):
        grn = GatedResidualNetwork(in_features, 7, out_features, RNG(12))
        rng = RNG(13)
        x = rng.normal(size=(2, 4, in_features))
        proj = rng.normal(size=(2, 4, out_features))

        grn.zero_grad()
        xt = Tensor(x, requires_grad=True)
        out = forward(grn, xt)
        (out * Tensor(proj)).sum().backward()
        tape_grads = _param_grads(grn)
        tape_dx = xt.grad.copy()
        tape_out = out.data

        grn.zero_grad()
        fast_out, cache = fastpath.grn_forward(grn, x)
        assert np.array_equal(fast_out, tape_out)
        dx = fastgrad.grn_backward(grn, cache, proj)
        np.testing.assert_allclose(dx, tape_dx, rtol=1e-9, atol=1e-11)
        _assert_grads_match(_param_grads(grn), tape_grads)

    @pytest.mark.parametrize("batch,t_query,t_key,num_heads", [
        (1, 2, 2, 1), (3, 4, 7, 2), (2, 5, 5, 3),
    ])
    @pytest.mark.parametrize("masked", [False, True])
    def test_attention(self, batch, t_query, t_key, num_heads, masked):
        d_model = 6
        attn = InterpretableMultiHeadAttention(d_model, num_heads, RNG(16))
        rng = RNG(17)
        query = rng.normal(size=(batch, t_query, d_model))
        key = rng.normal(size=(batch, t_key, d_model))
        value = rng.normal(size=(batch, t_key, d_model))
        proj = rng.normal(size=(batch, t_query, d_model))
        mask = causal_mask(query_len=t_query, key_len=t_key) if masked else None

        attn.zero_grad()
        qt = Tensor(query, requires_grad=True)
        kt = Tensor(key, requires_grad=True)
        vt = Tensor(value, requires_grad=True)
        out, weights = forward(attn, qt, kt, vt, mask=mask)
        (out * Tensor(proj)).sum().backward()
        tape_grads = _param_grads(attn)
        tape_dq, tape_dk, tape_dv = qt.grad.copy(), kt.grad.copy(), vt.grad.copy()
        tape_out, tape_weights = out.data, weights.data

        attn.zero_grad()
        fast_out, fast_weights, cache = fastpath.interpretable_attention(
            attn, query, key, value, mask=mask
        )
        assert np.array_equal(fast_out, tape_out)
        assert np.array_equal(fast_weights, tape_weights)
        dq, dk, dv = fastgrad.attention_backward(attn, cache, proj)
        np.testing.assert_allclose(dq, tape_dq, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dk, tape_dk, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dv, tape_dv, rtol=1e-9, atol=1e-11)
        # The key-projection bias grads are pure cancellation noise
        # (softmax is shift-invariant along the key axis, so their true
        # gradient is exactly zero) — atol alone covers them.
        _assert_grads_match(_param_grads(attn), tape_grads)


# ---------------------------------------------------------------------------
# Full model loss + fit trajectory vs the tape
# ---------------------------------------------------------------------------
def _tft(config=None):
    fc = TFTForecaster(
        16, 8, d_model=8, num_heads=2,
        config=config or TrainingConfig(epochs=1, seed=0),
    )
    fc.network = fc._build(RNG(18))
    return fc


class TestModelLossParity:
    @pytest.mark.parametrize("batch", [1, 6])
    def test_tft(self, batch):
        fc = _tft()
        rng = RNG(19)
        context = rng.normal(size=(batch, fc.context_length))
        horizon = rng.normal(size=(batch, fc.horizon))
        starts = rng.integers(0, 500, size=batch)

        with float64_serving(fc):  # the TFT trains in float32; the tape in float64
            fc.network.zero_grad()
            tape_loss = tape_loss_backward(fc, (context.copy(), horizon.copy(), starts))
            tape_grads = _param_grads(fc.network)

            fc.network.zero_grad()
            fast_loss = fc._loss_backward(context.copy(), horizon.copy(), starts)
            fast_grads = _param_grads(fc.network)
        assert fast_loss == tape_loss  # bitwise: same compositions, same order
        _assert_grads_match(fast_grads, tape_grads)

    def test_supports_flag(self):
        assert "_forward_loss" in vars(TFTForecaster)

    def test_attention_pattern_updated_by_fastgrad(self):
        fc = _tft()
        rng = RNG(20)
        context = rng.normal(size=(2, fc.context_length))
        horizon = rng.normal(size=(2, fc.horizon))
        starts = np.array([0, 5])
        fc._loss_backward(context, horizon, starts)
        weights = fc.attention_weights()
        assert weights is not None and weights.shape == (2, fc.horizon, 24)


class TestFitTrajectoryParity:
    def test_trajectories_match(self):
        rng = RNG(21)
        series = 50 + 10 * np.sin(np.arange(220) * 2 * np.pi / 24) + rng.normal(0, 1, 220)

        def build():
            cfg = TrainingConfig(epochs=3, batch_size=16, seed=0, patience=0)
            return TFTForecaster(16, 8, d_model=8, num_heads=2, config=cfg)

        with float64_serving(build()) as fast, float64_serving(build()) as tape:
            fast.fit(series)
            tape_fit(tape, series)
            fast_losses = [r["train_loss"] for r in fast.history]
            tape_losses = [r["train_loss"] for r in tape.history]
            np.testing.assert_allclose(fast_losses, tape_losses, rtol=1e-10)
            for (name, pf), (_, pt) in zip(
                fast.network.named_parameters(), tape.network.named_parameters()
            ):
                assert pf.data.dtype == pt.data.dtype == np.float64
                np.testing.assert_allclose(
                    pf.data, pt.data, rtol=1e-8, atol=1e-10, err_msg=name
                )
