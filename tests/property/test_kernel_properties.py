"""Property-based tests for the raw-array neural kernels.

Each layer has one forward (:mod:`repro.nn.fastpath`) that serves
inference (activations dropped) and training (activations cached), so
the invariants worth generating inputs for are the ones that make that
sharing safe: recording a cache never changes a value, a scan can be cut
anywhere and resumed from the carried state, and the single-step entry
point is the scan at length one — all bitwise, down to batch 1 and a
single timestep.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forecast.features import NUM_CALENDAR_FEATURES
from repro.forecast.tft import _TFTNetwork
from repro.nn import LSTM
from tests.nn.oracles import as_float32, forward
from tests.nn.tensor import Tensor

lstm_cases = st.fixed_dictionaries(
    {
        "batch": st.integers(1, 4),
        "steps": st.integers(1, 6),
        "features": st.integers(1, 4),
        "hidden": st.integers(1, 5),
        "layers": st.integers(1, 3),
        "seed": st.integers(0, 2**16),
    }
)


def _lstm_and_input(case, extra_steps=0):
    rng = np.random.default_rng(case["seed"])
    lstm = LSTM(case["features"], case["hidden"], rng, num_layers=case["layers"])
    x = rng.normal(size=(case["batch"], case["steps"] + extra_steps, case["features"]))
    return lstm, x


def _assert_states_equal(got, want):
    for (gh, gc), (wh, wc) in zip(got, want, strict=True):
        assert np.array_equal(gh, wh) and np.array_equal(gc, wc)


class TestLSTMScan:
    @settings(max_examples=40, deadline=None)
    @given(lstm_cases)
    def test_recording_the_cache_changes_nothing(self, case):
        lstm, x = _lstm_and_input(case)
        plain_out, plain_state = lstm.fast_forward(x)
        caches = []
        cached_out, cached_state = lstm.fast_forward(x, cache=caches)
        assert np.array_equal(cached_out, plain_out)
        _assert_states_equal(cached_state, plain_state)
        assert len(caches) == case["layers"]
        # the top layer's recorded tanh(c) and output gate reproduce its output,
        # and its recorded states are the sequence and the final state
        top = caches[-1]
        assert np.array_equal(np.swapaxes(top.gates[:, 2] * top.tanh_c, 0, 1), plain_out)
        assert np.array_equal(np.swapaxes(top.h_seq[1:], 0, 1), plain_out)
        assert np.array_equal(top.h_seq[-1], plain_state[-1][0])
        assert np.array_equal(top.c_seq[-1], plain_state[-1][1])

    @settings(max_examples=40, deadline=None)
    @given(lstm_cases)
    def test_matches_the_tape_bitwise(self, case):
        lstm, x = _lstm_and_input(case)
        tape_out, tape_state = forward(lstm, Tensor(x))
        out, state = lstm.fast_forward(x)
        assert np.array_equal(out, tape_out.data)
        _assert_states_equal(state, [(h.data, c.data) for h, c in tape_state])

    @settings(max_examples=40, deadline=None)
    @given(lstm_cases, st.integers(1, 5))
    def test_scan_can_be_split_at_any_step(self, case, tail):
        lstm, x = _lstm_and_input(case, extra_steps=tail)
        whole_out, whole_state = lstm.fast_forward(x)
        head_out, carried = lstm.fast_forward(x[:, : case["steps"]])
        tail_out, tail_state = lstm.fast_forward(x[:, case["steps"] :], carried)
        assert np.array_equal(np.concatenate([head_out, tail_out], axis=1), whole_out)
        _assert_states_equal(tail_state, whole_state)

    @settings(max_examples=40, deadline=None)
    @given(lstm_cases)
    def test_fast_step_is_a_one_step_scan(self, case):
        lstm, x = _lstm_and_input(case, extra_steps=1)
        _, carried = lstm.fast_forward(x[:, :-1])
        scan_out, scan_state = lstm.fast_forward(x[:, -1:], carried)
        step_out, step_state = lstm.fast_step(x[:, -1], carried)
        assert np.array_equal(step_out, scan_out[:, 0])
        _assert_states_equal(step_state, scan_state)

    @settings(max_examples=40, deadline=None)
    @given(lstm_cases)
    def test_float32_within_the_stated_tolerance(self, case):
        """Same bound as tests/nn/test_float32.py::test_float32_close_to_float64_forward."""
        lstm, x = _lstm_and_input(case)
        out64, _ = lstm.fast_forward(x)
        out32, state32 = as_float32(lstm).fast_forward(x)  # the scan casts its input once
        assert out32.dtype == np.float32
        assert all(h.dtype == c.dtype == np.float32 for h, c in state32)
        np.testing.assert_allclose(out32, out64, atol=1e-5)


tft_cases = st.fixed_dictionaries(
    {
        "batch": st.integers(1, 3),
        "context": st.integers(1, 6),
        "horizon": st.integers(1, 4),
        "heads": st.integers(1, 2),
        "d_head": st.integers(1, 3),
        "seed": st.integers(0, 2**16),
    }
)


def _tft_and_inputs(case):
    rng = np.random.default_rng(case["seed"])
    net = _TFTNetwork(case["heads"] * case["d_head"], case["heads"], 3, rng)
    past = rng.normal(size=(case["batch"], case["context"], 1 + NUM_CALENDAR_FEATURES))
    future = rng.normal(size=(case["batch"], case["horizon"], NUM_CALENDAR_FEATURES))
    return net, past, future


class TestTFTForward:
    @settings(max_examples=25, deadline=None)
    @given(tft_cases)
    def test_recording_the_cache_changes_nothing(self, case):
        net, past, future = _tft_and_inputs(case)
        plain = net.fast_forward(past, future)
        plain_attention = net._last_attention
        cache = {}
        cached = net.fast_forward(past, future, cache=cache)
        assert np.array_equal(cached, plain)
        assert np.array_equal(net._last_attention, plain_attention)
        assert {"encoder", "decoder", "attention", "feed_forward"} <= set(cache)

    @settings(max_examples=25, deadline=None)
    @given(tft_cases)
    def test_float32_within_the_stated_tolerance(self, case):
        """Same bound as tests/nn/test_tft_fastpath.py::TestFloat32."""
        net, past, future = _tft_and_inputs(case)
        out64 = net.fast_forward(past, future)
        net32 = as_float32(net)
        out32 = net32.fast_forward(past.astype(np.float32), future.astype(np.float32))
        assert out32.dtype == np.float32 and net32._last_attention.dtype == np.float32
        np.testing.assert_allclose(out32, out64, atol=1e-4)
