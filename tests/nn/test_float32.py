"""float32 mode of the tape-free kernel stack.

float64 (the default) stays bitwise-identical to the autograd tape;
float32 is a speed/accuracy trade behind an explicit opt-in
(``set_inference_dtype`` / ``--dtype float32``).  These tests pin three
things: the dtype actually threads through every kernel (no silent
float64 promotion), the float64 path is untouched by the threading, and
float32 results stay statistically close to float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.forecast import DeepARForecaster, TrainingConfig
from repro.nn import fastgrad, fastpath
from repro.nn.rnn import LSTM

HIDDEN = 8


@pytest.fixture(scope="module")
def lstm():
    return LSTM(input_size=3, hidden_size=HIDDEN, rng=np.random.default_rng(0), num_layers=2)


@pytest.fixture(scope="module")
def sequence():
    return np.random.default_rng(1).normal(size=(4, 10, 3))


# -- dtype threading -------------------------------------------------------


def test_prepare_lstm_params_casts_weights(lstm):
    prepared = fastpath.prepare_lstm_params(lstm._layer_params(), HIDDEN, dtype=np.float32)
    for w_ih, w_hh, bias in prepared:
        assert w_ih.dtype == w_hh.dtype == bias.dtype == np.float32


def test_lstm_forward_float32_stays_float32(lstm, sequence):
    outputs, state = lstm.fast_forward(sequence, dtype=np.float32)
    assert outputs.dtype == np.float32
    for h, c in state:
        assert h.dtype == c.dtype == np.float32


def test_lstm_step_float32_stays_float32(lstm):
    x = np.random.default_rng(2).normal(size=(4, 3))
    state = [(np.zeros((4, HIDDEN)), np.zeros((4, HIDDEN))) for _ in range(2)]
    top, new_state = lstm.fast_step(x, state, dtype=np.float32)
    assert top.dtype == np.float32
    for h, c in new_state:
        assert h.dtype == c.dtype == np.float32


def test_sigmoid_preserves_dtype():
    x32 = np.linspace(-20, 20, 101, dtype=np.float32)
    out32 = fastpath.sigmoid(x32)
    assert out32.dtype == np.float32
    out64 = fastpath.sigmoid(x32.astype(np.float64))
    np.testing.assert_allclose(out32, out64, atol=1e-6)


def test_fastgrad_forward_and_backward_float32(lstm, sequence):
    caches = []
    outputs, _ = lstm.fast_forward(sequence, dtype=np.float32, cache=caches)
    assert outputs.dtype == np.float32
    grads, _, _ = fastgrad.lstm_backward(np.ones_like(outputs), caches, HIDDEN)
    for dw_ih, dw_hh, db in grads:
        assert dw_ih.dtype == dw_hh.dtype == db.dtype == np.float32


# -- float64 default untouched ---------------------------------------------


def test_default_dtype_is_float64_and_matches_explicit(lstm, sequence):
    default_out, default_state = lstm.fast_forward(sequence)
    explicit_out, explicit_state = lstm.fast_forward(sequence, dtype=np.float64)
    assert default_out.dtype == np.float64
    assert np.array_equal(default_out, explicit_out)
    for (h_a, c_a), (h_b, c_b) in zip(default_state, explicit_state):
        assert np.array_equal(h_a, h_b) and np.array_equal(c_a, c_b)


def test_float32_close_to_float64_forward(lstm, sequence):
    out64, _ = lstm.fast_forward(sequence)
    out32, _ = lstm.fast_forward(sequence, dtype=np.float32)
    np.testing.assert_allclose(out32, out64, atol=1e-5)


# -- forecaster integration ------------------------------------------------


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    series = 100 + 20 * np.sin(np.arange(400) * 2 * np.pi / 144) + rng.normal(0, 3, 400)
    return DeepARForecaster(
        36, 12, hidden_size=8, num_layers=1, num_samples=50,
        config=TrainingConfig(epochs=1, seed=0),
    ).fit(series), series


def test_set_inference_dtype_validates():
    forecaster = DeepARForecaster(36, 12)
    assert forecaster.inference_dtype == np.dtype(np.float64)
    assert forecaster.set_inference_dtype("float32") is forecaster
    assert forecaster.inference_dtype == np.dtype(np.float32)
    with pytest.raises(ValueError, match="float32 or float64"):
        forecaster.set_inference_dtype(np.int32)


def test_float32_sampling_deterministic_and_close_to_float64(fitted):
    forecaster, series = fitted
    context = series[-36:]

    forecaster.reseed_sampler(7)
    paths64 = forecaster.sample_paths(context, start_index=364).samples

    forecaster.set_inference_dtype(np.float32)
    try:
        forecaster.reseed_sampler(7)
        paths32_a = forecaster.sample_paths(context, start_index=364).samples
        forecaster.reseed_sampler(7)
        paths32_b = forecaster.sample_paths(context, start_index=364).samples
    finally:
        forecaster.set_inference_dtype(np.float64)

    # Same seed, same dtype -> bit-identical.
    assert np.array_equal(paths32_a, paths32_b)
    # Across dtypes the gate is statistical (standard_t rejection
    # sampling may consume different draws once an intermediate differs
    # in the last ulp): per-step quantiles must agree closely relative
    # to the sampling spread.
    q64 = np.quantile(paths64, [0.1, 0.5, 0.9], axis=0)
    q32 = np.quantile(paths32_a, [0.1, 0.5, 0.9], axis=0)
    spread = np.maximum(q64[2] - q64[0], 1e-6)
    assert np.max(np.abs(q32 - q64) / spread) < 0.5


def test_float64_mode_unaffected_by_prior_float32_use(fitted):
    """Switching to float32 and back must leave float64 bitwise intact."""
    forecaster, series = fitted
    context = series[-36:]
    forecaster.reseed_sampler(3)
    before = forecaster.sample_paths(context, start_index=364).samples
    forecaster.set_inference_dtype(np.float32)
    forecaster.sample_paths(context, start_index=364)
    forecaster.set_inference_dtype(np.float64)
    forecaster.reseed_sampler(3)
    after = forecaster.sample_paths(context, start_index=364).samples
    assert np.array_equal(before, after)
