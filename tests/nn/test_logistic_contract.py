"""The numeric contract of the shared logistic and the pre-halved LSTM step.

``fastpath.sigmoid`` is ``0.5 * tanh(0.5 x) + 0.5`` for tape and kernels
alike, and ``prepare_lstm_params`` folds the inner ``0.5`` into the gate
weights.  Kernel-vs-tape parity therefore no longer says anything about
that trick; these tests do: an oracle that shares none of it
(``tests/nn/oracles.py::reference_lstm_cell``, ``scipy.special.expit``),
the properties the logistic must keep on its whole domain, and the exact
layout of the prepared weights (gates on a leading axis, i / f / o halved;
``tests/nn/test_gates_first.py`` pins that layout against the previous
kernel).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from repro.forecast import DeepARForecaster, TFTForecaster, TrainingConfig
from repro.nn import LSTM, fastpath
from tests.nn.oracles import (
    float64_serving,
    reference_kernels,
    reference_lstm_cell,
    reference_prepare_lstm_params,
)

EPS = np.finfo(np.float64).eps  # 1 ulp of 1.0
# Agreement with the oracle: 1e-12 relative, and - because a gate is within
# 1 ulp *of 1.0*, not of its own value - a few of those ulps absolute for
# the gates and the O(1) states built from them.
RTOL = 1e-12
ATOL = 4 * EPS


def _series(length):
    rng = np.random.default_rng(0)
    return 100 + 20 * np.sin(np.arange(length) * 2 * np.pi / 144) + rng.normal(0, 3, length)


# ---------------------------------------------------------------------------
# (a) Independent oracle
# ---------------------------------------------------------------------------
class TestAgainstIndependentOracle:
    @pytest.mark.parametrize("batch, features", [(1, 6), (1, 32), (100, 6), (100, 32)])
    def test_cell_on_prepared_weights(self, batch, features):
        hs = 32
        rng = np.random.default_rng(batch + features)
        lstm = LSTM(features, hs, rng)
        (raw,) = lstm._layer_params()
        (prepared,) = fastpath.prepare_lstm_params([raw], hs)
        (textbook,) = reference_prepare_lstm_params([raw], hs)
        x = rng.normal(size=(batch, features)) * 3  # pre-activations out to +-15
        h, c = rng.normal(size=(batch, hs)), rng.normal(size=(batch, hs))
        got_h, got_c, (ifo, g_gate, tanh_c) = fastpath.lstm_cell_permuted(x, h, c, *prepared)
        want_h, want_c, _ = reference_lstm_cell(x, h, c, *textbook)
        np.testing.assert_allclose(got_h, want_h, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(got_c, want_c, rtol=RTOL, atol=ATOL)
        # the returned activations are the post-activation gates, [i, f, o] and g,
        # one (B, H) block each
        assert ifo.shape == (3, batch, hs) and g_gate.shape == (batch, hs)
        pre = x @ raw[0] + h @ raw[1] + raw[2]
        np.testing.assert_allclose(ifo[0], expit(pre[:, :hs]), rtol=0, atol=ATOL)
        np.testing.assert_allclose(ifo[1], expit(pre[:, hs : 2 * hs]), rtol=0, atol=ATOL)
        np.testing.assert_allclose(ifo[2], expit(pre[:, 3 * hs :]), rtol=0, atol=ATOL)
        np.testing.assert_allclose(g_gate, np.tanh(pre[:, 2 * hs : 3 * hs]), rtol=0, atol=ATOL)
        np.testing.assert_allclose(tanh_c, np.tanh(want_c), rtol=0, atol=ATOL)

    def test_multilayer_scan(self):
        hs, layers = 12, 3
        rng = np.random.default_rng(5)
        lstm = LSTM(4, hs, rng, num_layers=layers)
        x = rng.normal(size=(3, 25, 4))
        got_seq, got_state = lstm.fast_forward(x)

        layer_input = x
        for layer, textbook in enumerate(reference_prepare_lstm_params(lstm._layer_params(), hs)):
            h, c = np.zeros((3, hs)), np.zeros((3, hs))
            outputs = []
            for t in range(x.shape[1]):
                h, c, _ = reference_lstm_cell(layer_input[:, t], h, c, *textbook)
                outputs.append(h)
            layer_input = np.stack(outputs, axis=1)
            np.testing.assert_allclose(got_state[layer][0], h, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(got_state[layer][1], c, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(got_seq, layer_input, rtol=RTOL, atol=ATOL)

    def test_deepar_sample_paths(self, monkeypatch):
        series = _series(500)
        forecaster = DeepARForecaster(
            36, 24, hidden_size=8, num_layers=2, num_samples=30,
            config=TrainingConfig(epochs=1, seed=0),
        ).fit(series)
        with float64_serving(forecaster):  # float64 against the float64 expit oracle
            forecaster.reseed_sampler(7)
            got = forecaster.sample_paths(series[-36:], start_index=464).samples
            reference_kernels(monkeypatch)
            forecaster.reseed_sampler(7)
            want = forecaster.sample_paths(series[-36:], start_index=464).samples
        assert not np.array_equal(got, want)  # the reference really ran
        np.testing.assert_allclose(got, want, rtol=RTOL)

    def test_tft_predict(self, monkeypatch):
        series = _series(400)
        forecaster = TFTForecaster(
            36, 12, d_model=16, num_heads=2, config=TrainingConfig(epochs=1, seed=0)
        ).fit(series)
        with float64_serving(forecaster):
            got = forecaster.predict(series[-36:], start_index=364).values
            reference_kernels(monkeypatch)
            want = forecaster.predict(series[-36:], start_index=364).values
        assert not np.array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=RTOL)


# ---------------------------------------------------------------------------
# (b) Properties of the logistic on its whole domain
# ---------------------------------------------------------------------------
finite = st.floats(-800.0, 800.0, allow_nan=False)
anything = st.one_of(finite, st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0]))
dtypes = st.sampled_from([np.float64, np.float32])


class TestLogisticProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(anything, min_size=1, max_size=40), dtypes)
    def test_range_dtype_nan_and_no_warning(self, values, dtype):
        x = np.array(values, dtype=dtype)
        # under: halving a subnormal input is inexact, which sets the one
        # flag numpy ignores by default; the result (0.5) is exact.
        with np.errstate(all="raise", under="ignore"):
            s = fastpath.sigmoid(x)
        assert s.dtype == dtype and s.shape == x.shape
        assert np.array_equal(np.isnan(s), np.isnan(x))
        kept = s[~np.isnan(s)]
        assert np.all((kept >= 0.0) & (kept <= 1.0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite, min_size=2, max_size=40), dtypes)
    def test_non_decreasing(self, values, dtype):
        x = np.sort(np.array(values, dtype=dtype))
        assert np.all(np.diff(fastpath.sigmoid(x)) >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=40), dtypes)
    def test_reflection_within_one_ulp(self, values, dtype):
        x = np.array(values, dtype=dtype)
        total = fastpath.sigmoid(x) + fastpath.sigmoid(-x)
        assert np.all(np.abs(total - 1.0) <= np.finfo(dtype).eps)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=40))
    def test_within_one_ulp_of_expit(self, values):
        x = np.array(values)
        assert np.all(np.abs(fastpath.sigmoid(x) - expit(x)) <= 2.3e-16)

    def test_saturates_exactly_and_at_infinity(self):
        x = np.array([-np.inf, -800.0, -40.0, 40.0, 800.0, np.inf])
        assert fastpath.sigmoid(x).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        assert fastpath.sigmoid(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]
        dense = np.linspace(-36.0, 36.0, 20001)
        assert np.all(np.abs(fastpath.sigmoid(dense) - expit(dense)) <= EPS)


# ---------------------------------------------------------------------------
# (c) Prepared weights and the cached weights of the backward
# ---------------------------------------------------------------------------
class TestPreparedWeights:
    HS = 6

    @pytest.fixture
    def lstm(self):
        return LSTM(3, self.HS, np.random.default_rng(11), num_layers=2)

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_sigmoid_blocks_are_exactly_halved(self, lstm, dtype):
        hs = self.HS
        raw_layers = lstm._layer_params()
        if dtype is not None:  # a kernel computes in the dtype of the weights it is handed
            raw_layers = [tuple(p.astype(dtype) for p in layer) for layer in raw_layers]
        before = [[p.copy() for p in layer] for layer in raw_layers]
        prepared = fastpath.prepare_lstm_params(raw_layers, hs)
        for layer, raw, kept in zip(prepared, raw_layers, before, strict=True):
            for got, param, original in zip(layer, raw, kept, strict=True):
                rows = 1 if param.ndim == 1 else param.shape[0]  # a bias is one row
                assert got.shape == (4, rows, hs)
                assert got.dtype == (dtype or np.float64) and got.flags.c_contiguous
                cast = param.reshape(rows, 4 * hs).astype(dtype or np.float64)
                i, f, g, o = (cast[:, k * hs : (k + 1) * hs] for k in range(4))
                for block, want in zip(got, (0.5 * i, 0.5 * f, 0.5 * o, g), strict=True):
                    assert block.flags.c_contiguous and np.array_equal(block, want)
                assert np.array_equal(param, original)  # the parameters are not touched

    def test_cache_holds_unhalved_permuted_weights(self, lstm):
        hs = self.HS
        perm = np.r_[0 : 2 * hs, 3 * hs : 4 * hs, 2 * hs : 3 * hs]
        caches = []
        lstm.fast_forward(np.random.default_rng(0).normal(size=(2, 5, 3)), cache=caches)
        for cache, (w_ih, w_hh, _) in zip(caches, lstm._layer_params(), strict=True):
            # 2-D for the backward's whole-sequence gemms
            assert np.array_equal(cache.w_ih, w_ih[:, perm]) and cache.w_ih.flags.c_contiguous
            assert np.array_equal(cache.w_hh, w_hh[:, perm]) and cache.w_hh.flags.c_contiguous
