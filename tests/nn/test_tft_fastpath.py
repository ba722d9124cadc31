"""Bitwise parity for the TFT's raw-array kernels.

The kernels promise *bitwise* float64 identity with the autograd
tape — including the stored attention pattern, which downstream
interpretability tooling reads — so every fused kernel (softmax,
LayerNorm, GLU, GRN, interpretable attention) and the whole-network
``_TFTNetwork.fast_forward`` are checked with ``np.array_equal``, not
``allclose``.  The tape side is the composition of the same production
module in ``tests/nn/oracles.py``.  The TFT trains and serves in float32
(``tests/nn/test_float32.py`` holds that contract); here its network and
the production ``predict`` run in float64 through ``float64_serving``.
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
    fastpath,
)
from repro.nn.attention import _MASK_CACHE
from tests.nn.oracles import float64_serving
from tests.nn.oracles import forward as _tape
from tests.nn.tensor import Tensor

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# causal_mask: vectorized construction + per-shape cache
# ---------------------------------------------------------------------------
class TestCausalMask:
    def test_matches_explicit_construction(self):
        for query_len, key_len in [(1, 1), (3, 3), (4, 9), (1, 7)]:
            mask = causal_mask(query_len=query_len, key_len=key_len)
            offset = key_len - query_len
            expected = np.zeros((query_len, key_len))
            for i in range(query_len):
                for j in range(key_len):
                    if j > i + offset:
                        expected[i, j] = -1e9
            np.testing.assert_array_equal(mask, expected)

    def test_cached_per_shape(self):
        a = causal_mask(query_len=5, key_len=11)
        b = causal_mask(query_len=5, key_len=11)
        assert a is b  # same read-only array, no rebuild
        assert (5, 11) in _MASK_CACHE
        assert causal_mask(query_len=5, key_len=12) is not a

    def test_cached_mask_is_read_only(self):
        mask = causal_mask(query_len=4, key_len=4)
        with pytest.raises(ValueError):
            mask[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Fused kernels vs the tape (bitwise, float64)
# ---------------------------------------------------------------------------
class TestKernelParityBitwise:
    def test_softmax(self):
        x = RNG(0).normal(size=(3, 4, 7)) * 5
        fast = fastpath.softmax(x.copy(), axis=-1)
        tape = Tensor(x).softmax(axis=-1).data
        assert np.array_equal(fast, tape)

    def test_softmax_with_mask_additive_minus_1e9(self):
        x = RNG(1).normal(size=(2, 4, 6))
        mask = causal_mask(query_len=4, key_len=6)
        fast = fastpath.softmax(x + mask, axis=-1)
        tape = (Tensor(x) + Tensor(np.array(mask))).softmax(axis=-1).data
        assert np.array_equal(fast, tape)

    def test_softmax_works_in_place_on_its_own_temporary_only(self):
        """softmax normalises its argument in place, bitwise the out-of-place
        composition; a caller that passes a copy keeps its input unwritten."""
        x = RNG(13).normal(size=(2, 3, 4, 6)) * 5
        for dtype in (np.float64, np.float32):
            kept = x.astype(dtype)
            scores = kept.copy()
            out = fastpath.softmax(scores, axis=-1)
            assert out is scores and not np.shares_memory(out, kept)
            assert out.dtype == dtype
            exp = np.exp(kept - kept.max(axis=-1, keepdims=True))  # the out-of-place composition
            assert np.array_equal(out, exp / exp.sum(axis=-1, keepdims=True))
            assert np.array_equal(kept, x.astype(dtype))

    @pytest.mark.parametrize("shape", [(5, 8), (2, 7, 8), (1, 1, 8)])
    def test_layer_norm(self, shape):
        norm = LayerNorm(shape[-1])
        norm.gamma.data[:] = RNG(2).normal(size=shape[-1])
        norm.beta.data[:] = RNG(3).normal(size=shape[-1])
        x = RNG(4).normal(size=shape)
        tape = _tape(norm, Tensor(x)).data
        assert np.array_equal(norm.fast_forward(x), tape)

    @pytest.mark.parametrize("shape", [(6, 5), (3, 4, 5)])
    def test_glu(self, shape):
        glu = GatedLinearUnit(shape[-1], 7, RNG(5))
        x = RNG(6).normal(size=shape)
        tape = _tape(glu, Tensor(x)).data
        assert np.array_equal(glu.fast_forward(x), tape)

    @pytest.mark.parametrize("in_features,out_features", [(6, 6), (6, 4)])
    def test_grn_with_and_without_skip(self, in_features, out_features):
        grn = GatedResidualNetwork(in_features, 8, out_features, RNG(7))
        assert (grn.skip is None) == (in_features == out_features)
        x = RNG(8).normal(size=(2, 5, in_features))
        tape = _tape(grn, Tensor(x)).data
        assert np.array_equal(grn.fast_forward(x), tape)

    @pytest.mark.parametrize("batch,t_query,t_key,num_heads", [
        (1, 3, 3, 1), (2, 4, 9, 2), (3, 6, 6, 4),
    ])
    @pytest.mark.parametrize("masked", [False, True])
    def test_interpretable_attention(self, batch, t_query, t_key, num_heads, masked):
        d_model = 8
        attn = InterpretableMultiHeadAttention(d_model, num_heads, RNG(11))
        rng = RNG(12)
        query = rng.normal(size=(batch, t_query, d_model))
        key = rng.normal(size=(batch, t_key, d_model))
        value = rng.normal(size=(batch, t_key, d_model))
        mask = causal_mask(query_len=t_query, key_len=t_key) if masked else None

        tape_out, tape_weights = _tape(
            attn, Tensor(query), Tensor(key), Tensor(value), mask=mask
        )
        fast_out, fast_weights = attn.fast_forward(query, key, value, mask=mask)
        assert np.array_equal(fast_out, tape_out.data)
        assert np.array_equal(fast_weights, tape_weights.data)

    def test_prepare_attention_params_concatenates_heads(self):
        attn = InterpretableMultiHeadAttention(8, 2, RNG(13))
        w, b = fastpath.prepare_attention_params(
            [(p.weight.data, p.bias.data) for p in attn._q_projs]
        )
        assert w.shape == (8, 8) and b.shape == (8,)
        np.testing.assert_array_equal(w[:, :4], attn._q_projs[0].weight.data)
        np.testing.assert_array_equal(b[4:], attn._q_projs[1].bias.data)


# ---------------------------------------------------------------------------
# Whole network + forecaster
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    series = 100 + 20 * np.sin(np.arange(400) * 2 * np.pi / 144) + rng.normal(0, 3, 400)
    forecaster = TFTForecaster(
        36, 12, d_model=16, num_heads=2, config=TrainingConfig(epochs=1, seed=0)
    ).fit(series)
    return forecaster, series


class TestNetworkFastForward:
    def test_forward_and_attention_bitwise(self, fitted):
        forecaster, _ = fitted
        net = forecaster.network
        rng = RNG(14)
        past = rng.normal(size=(3, 36, net.past_proj.in_features))
        future = rng.normal(size=(3, 12, net.future_proj.in_features))

        with float64_serving(forecaster):  # the tape computes in float64
            tape = _tape(net, Tensor(past), Tensor(future)).data
            tape_attn = net._last_attention.copy()
            fast = net.fast_forward(past, future)
            assert np.array_equal(fast, tape)
            assert np.array_equal(net._last_attention, tape_attn)

    def test_predict_bitwise_vs_tape(self, fitted, monkeypatch):
        forecaster, series = fitted
        context = series[-36:]
        net = forecaster.network
        with float64_serving(forecaster):  # production predict on the weights the tape sees
            with monkeypatch.context() as patch:
                patch.setattr(
                    net, "fast_forward",
                    lambda past, future: _tape(net, Tensor(past), Tensor(future)).data,
                )
                tape = forecaster.predict(context, start_index=364)
                tape_attn = forecaster.attention_weights().copy()
            fast = forecaster.predict(context, start_index=364)
            assert np.array_equal(fast.values, tape.values)
            assert np.array_equal(forecaster.attention_weights(), tape_attn)


class TestFloat32:
    def test_dtype_threads_through_every_kernel(self, fitted):
        forecaster, _ = fitted
        net = forecaster.network  # the TFT's one network is float32
        rng = RNG(16)
        past = rng.normal(size=(2, 36, net.past_proj.in_features)).astype(np.float32)
        future = rng.normal(size=(2, 12, net.future_proj.in_features)).astype(np.float32)
        out = net.fast_forward(past, future)
        assert out.dtype == np.float32
        assert net._last_attention.dtype == np.float32

    def test_float32_close_to_float64(self, fitted):
        forecaster, _ = fitted
        net = forecaster.network
        rng = RNG(17)
        past = rng.normal(size=(2, 36, net.past_proj.in_features))
        future = rng.normal(size=(2, 12, net.future_proj.in_features))
        out32 = net.fast_forward(past.astype(np.float32), future.astype(np.float32))
        with float64_serving(forecaster):
            out64 = net.fast_forward(past, future)
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        np.testing.assert_allclose(out32, out64, atol=1e-4)
