"""The gates-first LSTM layout against the kernel it replaced.

``fastpath`` keeps the four gates on a *leading* axis - weights
``(4, F, H)``, activations ``(4, B, H)``, a time-major cache - where the
previous kernel kept them as column blocks of one ``(B, 4H)`` buffer.
That is a layout, not an approximation, and these tests pin it against
the previous kernel kept verbatim in ``tests/nn/oracles.py``
(``fused_*``):

* bit-identical at every shape the benchmark workloads run, and whenever
  ``hidden % 8 == 0`` in general - each output element is the same
  length-K dot product, and on this OpenBLAS a per-gate ``(F, H)`` gemm
  rounds like the fused ``(F, 4H)`` one at those widths;
* at any other hidden size, equal to the last bits of the *accumulated*
  pre-activation (the two gemms may sum a dot product in different
  orders, nothing more);
* BPTT gradients bit-identical to the previous cache-reading loop;
* every block the cell and the reverse sweep touch per step contiguous -
  the mechanism the layout exists for.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LSTM, fastgrad, fastpath
from tests.nn.oracles import (
    fused_lstm_backward,
    fused_lstm_cell,
    fused_lstm_forward,
    fused_prepare_lstm_params,
)

EPS = np.finfo(np.float64).eps


def _gates_first(columns: np.ndarray, hidden: int) -> np.ndarray:
    """A fused ``(B, k * H)`` buffer as the ``(k, B, H)`` stack it corresponds to."""
    return np.moveaxis(columns.reshape(len(columns), -1, hidden), 1, 0)


def _cell_inputs(batch, features, hidden, seed):
    rng = np.random.default_rng(seed)
    (raw,) = LSTM(features, hidden, rng)._layer_params()
    x = rng.normal(size=(batch, features)) * 3  # pre-activations out to +-15
    h, c = rng.normal(size=(batch, hidden)), rng.normal(size=(batch, hidden))
    return raw, x, h, c


class TestCellAgainstFusedLayout:
    # DeepAR: 1 + 4 calendar inputs, then hidden -> hidden; TFT: d_model = 32.
    # Batch 1 is the warm-up / predict, 32 a training batch, 100 the sample paths.
    @pytest.mark.parametrize("batch", [1, 32, 100])
    @pytest.mark.parametrize("features", [5, 32])
    def test_bit_identical_at_the_workload_shapes(self, batch, features):
        hs = 32
        for seed in range(5):
            raw, x, h, c = _cell_inputs(batch, features, hs, seed)
            (prepared,) = fastpath.prepare_lstm_params([raw], hs)
            (fused,) = fused_prepare_lstm_params([raw], hs)
            got_h, got_c, (ifo, g_gate, tanh_c) = fastpath.lstm_cell_permuted(x, h, c, *prepared)
            want_h, want_c, (want_ifo, want_g, want_tanh_c) = fused_lstm_cell(x, h, c, *fused, hs)
            assert np.array_equal(got_h, want_h) and np.array_equal(got_c, want_c)
            assert np.array_equal(tanh_c, want_tanh_c) and np.array_equal(g_gate, want_g)
            assert np.array_equal(ifo, _gates_first(want_ifo, hs))

    @pytest.mark.parametrize("hidden", [8, 16, 24, 64])
    def test_bit_identical_when_hidden_is_a_multiple_of_eight(self, hidden):
        raw, x, h, c = _cell_inputs(7, 3, hidden, seed=hidden)
        (prepared,) = fastpath.prepare_lstm_params([raw], hidden)
        (fused,) = fused_prepare_lstm_params([raw], hidden)
        got = fastpath.lstm_cell_permuted(x, h, c, *prepared)[:2]
        want = fused_lstm_cell(x, h, c, *fused, hidden)[:2]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=200, deadline=None)
    @given(
        hidden=st.integers(1, 12), batch=st.integers(1, 5), features=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_any_hidden_size_agrees_to_the_last_bits_of_the_accumulation(
        self, hidden, batch, features, seed
    ):
        raw, x, h, c = _cell_inputs(batch, features, hidden, seed)
        (w_ih, w_hh, bias), = fastpath.prepare_lstm_params([raw], hidden)
        (f_ih, f_hh, f_bias), = fused_prepare_lstm_params([raw], hidden)
        pre = np.matmul(x, w_ih)
        pre += np.matmul(h, w_hh)
        pre += bias
        fused_pre = x @ f_ih
        fused_pre += h @ f_hh
        fused_pre += f_bias
        # Both sum the same features + hidden products and two more terms per
        # element; only the order may differ, so they agree to that many ulps
        # of the magnitude accumulated (not of the - possibly cancelled -
        # result).  An ulp count, not an rtol; measured worst case is 3.
        magnitude = np.abs(x) @ np.abs(f_ih) + np.abs(h) @ np.abs(f_hh) + np.abs(f_bias)
        bound = (features + hidden + 2) * np.spacing(_gates_first(magnitude, hidden))
        assert np.all(np.abs(pre - _gates_first(fused_pre, hidden)) <= bound)
        # tanh and the logistic are 1-Lipschitz: the gates inherit the bound,
        # plus the rounding of the activation itself.
        _, _, (ifo, g_gate, _) = fastpath.lstm_cell_permuted(x, h, c, w_ih, w_hh, bias)
        _, _, (want_ifo, want_g, _) = fused_lstm_cell(x, h, c, f_ih, f_hh, f_bias, hidden)
        assert np.all(np.abs(ifo - _gates_first(want_ifo, hidden)) <= bound[:3] + 2 * EPS)
        assert np.all(np.abs(g_gate - want_g) <= bound[3] + 2 * EPS)


class TestScanAndBackwardAgainstFusedLayout:
    def test_training_shape_is_bit_identical_forward_and_backward(self):
        """One DeepAR training batch: B = 32, T = 143, two layers of 32."""
        batch, steps, features, hs = 32, 143, 5, 32
        rng = np.random.default_rng(20)
        lstm = LSTM(features, hs, rng, num_layers=2)
        x = rng.normal(size=(batch, steps, features))
        dout = rng.normal(size=(batch, steps, hs))

        want_out, want_state, fused_caches = fused_lstm_forward(x, lstm._layer_params(), hs)
        want_grads, want_dx, want_dstate = fused_lstm_backward(dout, fused_caches, hs, need_dx=True)

        caches = []
        out, state = lstm.fast_forward(x, cache=caches)
        grads, dx, dstate = fastgrad.lstm_backward(dout, caches, hs, need_dx=True)

        assert out.shape == want_out.shape and np.array_equal(out, want_out)
        for got, want in zip(state + dstate, want_state + want_dstate, strict=True):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(dx, want_dx)
        for got, want in zip(grads, want_grads, strict=True):
            for got_grad, want_grad in zip(got, want, strict=True):
                assert np.array_equal(got_grad, want_grad)
        # the cache records what the previous one did, time-major
        for cache, fused in zip(caches, fused_caches, strict=True):
            assert np.array_equal(cache.inputs, fused["inputs"])
            assert np.array_equal(np.swapaxes(cache.h_seq[:-1], 0, 1), fused["h_prev"])
            assert np.array_equal(np.swapaxes(cache.c_seq[:-1], 0, 1), fused["c_prev"])
            assert np.array_equal(np.swapaxes(cache.tanh_c, 0, 1), fused["tanh_c"])
            assert np.array_equal(
                np.moveaxis(cache.gates, (0, 1), (1, 2)).reshape(batch, steps, 4 * hs),
                fused["gates"],
            )
            assert np.array_equal(cache.w_ih, fused["w_ih"])
            assert np.array_equal(cache.w_hh, fused["w_hh"])


class TestContiguity:
    """The mechanism: no pass of the cell or the sweep walks a strided view."""

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_cell_returns_contiguous_gate_blocks(self, dtype):
        raw, x, h, c = _cell_inputs(9, 5, 32, seed=1)
        work = dtype or np.float64
        (prepared,) = fastpath.prepare_lstm_params([tuple(p.astype(work) for p in raw)], 32)
        h_new, c_new, (ifo, g_gate, tanh_c) = fastpath.lstm_cell_permuted(
            x.astype(work), h.astype(work), c.astype(work), *prepared
        )
        for array in (h_new, c_new, ifo, ifo[0], ifo[1], ifo[2], g_gate, tanh_c):
            assert array.flags.c_contiguous and array.dtype == work
        assert ifo.base is g_gate.base and ifo.base.shape == (4, 9, 32)  # one gate buffer

    def test_cell_writes_into_the_destinations_it_is_given(self):
        raw, x, h, c = _cell_inputs(4, 5, 8, seed=2)
        (prepared,) = fastpath.prepare_lstm_params([raw], 8)
        plain_h, plain_c, (plain_ifo, plain_g, plain_tanh_c) = fastpath.lstm_cell_permuted(
            x, h, c, *prepared
        )
        out = (np.empty((4, 8)), np.empty((4, 8)), np.empty((4, 4, 8)), np.empty((4, 8)))
        h_new, c_new, (ifo, g_gate, tanh_c) = fastpath.lstm_cell_permuted(
            x, h, c, *prepared, out=out
        )
        assert h_new is out[0] and c_new is out[1] and tanh_c is out[3]
        assert np.shares_memory(ifo, out[2]) and np.shares_memory(g_gate, out[2])
        assert np.array_equal(out[0], plain_h) and np.array_equal(out[1], plain_c)
        assert np.array_equal(out[2][:3], plain_ifo) and np.array_equal(out[2][3], plain_g)
        assert np.array_equal(out[3], plain_tanh_c)

    def test_every_per_step_slice_of_the_cache_is_contiguous(self):
        rng = np.random.default_rng(3)
        lstm = LSTM(5, 8, rng, num_layers=2)
        caches = []
        lstm.fast_forward(rng.normal(size=(3, 6, 5)), cache=caches)
        for cache in caches:
            assert cache.h_seq.shape == cache.c_seq.shape == (7, 3, 8)
            assert cache.gates.shape == (6, 4, 3, 8) and cache.tanh_c.shape == (6, 3, 8)
            for t in range(6):
                # exactly what lstm_backward reads at step t
                i, f, o, g = cache.gates[t]
                for array in (i, f, o, g, cache.gates[t], cache.tanh_c[t], cache.c_seq[t],
                              cache.h_seq[t]):
                    assert array.flags.c_contiguous
            assert cache.w_ih.flags.c_contiguous and cache.w_hh.flags.c_contiguous
