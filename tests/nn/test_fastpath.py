"""Parity tests for the raw-array kernels.

Every kernel must be *bitwise* identical to the Tensor tape path —
not merely close — because the DeepAR sampler feeds its own outputs
back in autoregressively, so any ULP difference compounds across the
horizon and changes the drawn trajectories.  The tape side is the
composition of the same production module in ``tests/nn/oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.forecast import DeepARForecaster, TrainingConfig
from repro.forecast.features import NUM_CALENDAR_FEATURES
from repro.nn import LSTM, Linear, fastpath
from repro.nn.rnn import LSTMCell
from tests.nn.oracles import float64_serving, forward, legacy_sample_paths, sample_paths_tape
from tests.nn.tensor import Tensor

RNG = np.random.default_rng(42)


def _random(shape):
    return RNG.normal(size=shape)


# ---------------------------------------------------------------------------
# Layer entry points
# ---------------------------------------------------------------------------
def test_lstm_forward_with_initial_state_matches_tape_bitwise():
    lstm = LSTM(3, 4, np.random.default_rng(5), num_layers=2)
    x = _random((2, 6, 3))
    state = [(_random((2, 4)), _random((2, 4))) for _ in range(2)]
    raw_seq, raw_state = lstm.fast_forward(x, state=state)
    seq, new_state = forward(lstm, Tensor(x), [(Tensor(h), Tensor(c)) for h, c in state])
    assert np.array_equal(seq.data, raw_seq)
    for (h, c), (rh, rc) in zip(new_state, raw_state):
        assert np.array_equal(h.data, rh) and np.array_equal(c.data, rc)


def test_linear_forward_matches_tape_bitwise():
    layer = Linear(4, 3, np.random.default_rng(0))
    x = _random((5, 4))
    out = layer.fast_forward(x)
    assert out.shape == (5, 3)
    assert np.array_equal(out, forward(layer, Tensor(x)).data)


# ---------------------------------------------------------------------------
# Elementwise kernels
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu", "softplus"])
def test_activation_parity_bitwise(name):
    x = np.concatenate(
        [_random(1000) * 10, [0.0, -0.0, 1e-300, -1e-300, 600.0, -600.0, np.inf, -np.inf]]
    )
    with np.errstate(invalid="ignore"):  # relu(-inf) multiplies 0 * -inf
        fast = getattr(fastpath, name)(x)
        tape = getattr(Tensor(x), name)().data
    # equal_nan: both paths produce NaN for relu(-inf) (0 * -inf).
    assert np.array_equal(fast, tape, equal_nan=True)


def test_sigmoid_extreme_values_match_tape():
    # tanh saturates instead of overflowing (no clip): far into both
    # tails the kernel and the tape op must return the same exact 0 / 1.
    x = np.array([-1000.0, -500.0, -499.999, 499.999, 500.0, 1000.0])
    assert np.array_equal(fastpath.sigmoid(x), Tensor(x).sigmoid().data)


# ---------------------------------------------------------------------------
# LSTM kernels
# ---------------------------------------------------------------------------
def _tape_cell_step(cell, x, h, c):
    h_new, c_new = forward(cell, Tensor(x), (Tensor(h), Tensor(c)))
    return h_new.data, c_new.data


def test_lstm_cell_forward_matches_tape_bitwise():
    cell = LSTMCell(5, 16, np.random.default_rng(1))
    x, h, c = _random((7, 5)), _random((7, 16)), _random((7, 16))
    params = [(cell.w_ih.data, cell.w_hh.data, cell.bias.data)]
    fast_h, [(state_h, fast_c)] = fastpath.lstm_step(x, params, 16, [(h, c)])
    tape_h, tape_c = _tape_cell_step(cell, x, h, c)
    assert np.array_equal(fast_h, tape_h) and np.array_equal(state_h, tape_h)
    assert np.array_equal(fast_c, tape_c)


def test_lstm_cell_permuted_matches_tape_bitwise():
    hs = 16
    cell = LSTMCell(5, hs, np.random.default_rng(2))
    params = [(cell.w_ih.data, cell.w_hh.data, cell.bias.data)]
    (w_ih, w_hh, bias), = fastpath.prepare_lstm_params(params, hs)
    x, h, c = _random((9, 5)), _random((9, hs)), _random((9, hs))
    fast_h, fast_c, _ = fastpath.lstm_cell_permuted(x, h, c, w_ih, w_hh, bias)
    tape_h, tape_c = _tape_cell_step(cell, x, h, c)
    assert np.array_equal(fast_h, tape_h)
    assert np.array_equal(fast_c, tape_c)


def test_multilayer_lstm_forward_matches_tape_bitwise():
    lstm = LSTM(5, 12, np.random.default_rng(3), num_layers=2)
    x = _random((4, 20, 5))
    fast_seq, fast_state = lstm.fast_forward(x)
    tape_seq, tape_state = forward(lstm, Tensor(x))
    assert np.array_equal(fast_seq, tape_seq.data)
    for (fh, fc), (th, tc) in zip(fast_state, tape_state):
        assert np.array_equal(fh, th.data)
        assert np.array_equal(fc, tc.data)


def test_lstm_step_continues_a_forward_state():
    lstm = LSTM(5, 12, np.random.default_rng(4), num_layers=2)
    x = _random((4, 21, 5))
    full_seq, _ = lstm.fast_forward(x)
    _, state = lstm.fast_forward(x[:, :20, :])
    top, _ = lstm.fast_step(x[:, 20, :], state)
    assert np.array_equal(top, full_seq[:, 20, :])


def _shares_memory_with_any(array, others):
    return any(np.shares_memory(array, other) for other in others)


def test_returned_state_aliases_neither_the_sequence_nor_the_given_state():
    """The scan writes states into time-major buffers and returns a view of
    one as the hidden sequence; the final state must be the caller's own."""
    lstm = LSTM(5, 12, np.random.default_rng(6), num_layers=2)
    x = _random((3, 4, 5))
    given = [(_random((3, 12)), _random((3, 12))) for _ in range(2)]
    kept = [(h.copy(), c.copy()) for h, c in given]
    caches = []
    seq, state = lstm.fast_forward(x, state=given, cache=caches)
    buffers = [seq] + [a for cache in caches for a in (cache.h_seq, cache.c_seq)]
    for (h, c), (given_h, given_c) in zip(state, given):
        assert not _shares_memory_with_any(h, buffers + [given_h, given_c])
        assert not _shares_memory_with_any(c, buffers + [given_h, given_c])
    # a second scan from that state overwrites none of it, nor the first result
    first_seq = seq.copy()
    first_state = [(h.copy(), c.copy()) for h, c in state]
    lstm.fast_forward(x[:, :2], state=state)
    seq[...] = 0.0  # a caller may reuse the sequence it was handed
    assert np.array_equal(first_seq[:, -1], first_state[-1][0])
    for (h, c), (first_h, first_c) in zip(state, first_state):
        assert np.array_equal(h, first_h) and np.array_equal(c, first_c)
    for (h, c), (kept_h, kept_c) in zip(given, kept):
        assert np.array_equal(h, kept_h) and np.array_equal(c, kept_c)


@pytest.mark.parametrize("with_cache", [False, True])
def test_zero_step_scan_returns_a_copy_of_the_state(with_cache):
    lstm = LSTM(5, 12, np.random.default_rng(7), num_layers=2)
    given = [(_random((3, 12)), _random((3, 12))) for _ in range(2)]
    caches = [] if with_cache else None
    seq, state = lstm.fast_forward(np.empty((3, 0, 5)), state=given, cache=caches)
    assert seq.shape == (3, 0, 12)
    for (h, c), (given_h, given_c) in zip(state, given, strict=True):
        assert np.array_equal(h, given_h) and np.array_equal(c, given_c)
        assert not np.shares_memory(h, given_h) and not np.shares_memory(c, given_c)
    # ... and of zeros when no state is given
    _, zero_state = lstm.fast_forward(np.empty((3, 0, 5)), cache=caches)
    assert all(h.shape == c.shape == (3, 12) and not h.any() and not c.any() for h, c in zero_state)
    assert not np.shares_memory(zero_state[0][0], zero_state[1][0])


# ---------------------------------------------------------------------------
# DeepAR end-to-end
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def deepar():
    rng = np.random.default_rng(0)
    series = 100 + 20 * np.sin(np.arange(500) * 2 * np.pi / 144) + rng.normal(0, 3, 500)
    return (
        DeepARForecaster(
            36, 24, hidden_size=8, num_layers=2, num_samples=30,
            config=TrainingConfig(epochs=1, seed=0),
        ).fit(series),
        series,
    )


def test_deepar_heads_match_tape(deepar):
    """The heads of the teacher-forced pass, on its flattened hidden sequence."""
    forecaster, _ = deepar
    net = forecaster.network
    inputs = _random((2, 3, 1 + NUM_CALENDAR_FEATURES))
    with float64_serving(forecaster):  # the tape computes in float64
        mu, scale, df = net.fast_forward(inputs)
        hidden, _ = net.lstm.fast_forward(inputs)
        top = Tensor(hidden.reshape(6, forecaster.hidden_size))
        tape_mu = forward(net.mu_head, top)[..., 0].data
        tape_scale = (forward(net.scale_head, top)[..., 0].softplus() + 1e-4).data
        tape_df = (forward(net.df_head, top)[..., 0].softplus() + 2.0).data
    assert mu.dtype == np.float64
    assert np.array_equal(mu, tape_mu)
    assert np.array_equal(scale, tape_scale)
    assert np.array_equal(df, tape_df)


def test_sample_paths_fast_vs_tape_identical(deepar):
    forecaster, series = deepar
    context = series[-36:]
    with float64_serving(forecaster):  # the production sampler on the weights the tape sees
        forecaster.reseed_sampler(99)
        fast = forecaster.sample_paths(context, start_index=464).samples
        forecaster.reseed_sampler(99)
        tape = forecaster.scaler.inverse_transform(
            sample_paths_tape(forecaster, forecaster.scaler.transform(context), 464)
        )
    assert fast.shape == (30, 24)
    assert np.array_equal(fast, tape)


def test_predict_quantiles_fast_vs_tape_identical(deepar, monkeypatch):
    forecaster, series = deepar
    context = series[-36:]
    forecaster.reseed_sampler(7)
    with float64_serving(forecaster):
        fast = forecaster.predict(context, levels=(0.1, 0.5, 0.9), start_index=464)
    forecaster.reseed_sampler(7)
    monkeypatch.setattr(
        forecaster, "_sample_fast",
        lambda normalised, start: sample_paths_tape(forecaster, normalised, start),
    )
    tape = forecaster.predict(context, levels=(0.1, 0.5, 0.9), start_index=464)
    assert np.array_equal(fast.values, tape.values)
    assert np.array_equal(fast.point, tape.point)


def test_sample_paths_agree_with_legacy_replica_in_distribution(deepar, monkeypatch):
    """The seed's sampler draws from the same predictive distribution
    (it consumes the rng in different call shapes, so not bit for bit)."""
    forecaster, series = deepar
    context = series[-36:]
    monkeypatch.setattr(forecaster, "num_samples", 2000)
    forecaster.reseed_sampler(11)
    current = forecaster.sample_paths(context, start_index=464).samples
    forecaster.reseed_sampler(12)
    legacy = legacy_sample_paths(forecaster, context, start_index=464)
    q_now = np.quantile(current, [0.1, 0.5, 0.9], axis=0)
    q_old = np.quantile(legacy, [0.1, 0.5, 0.9], axis=0)
    spread = np.maximum(q_now[2] - q_now[0], 1e-6)
    assert np.max(np.abs(q_now - q_old) / spread) < 0.25
