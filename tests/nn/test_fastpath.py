"""Parity and dispatch tests for the raw-array inference kernels.

Every kernel must be *bitwise* identical to the Tensor tape path —
not merely close — because the DeepAR sampler feeds its own outputs
back in autoregressively, so any ULP difference compounds across the
horizon and changes the drawn trajectories.  The tape side is obtained
by calling the module with gradients enabled (``Module.__call__`` only
dispatches to the raw kernel under ``no_grad``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.forecast import DeepARForecaster, TrainingConfig
from repro.nn import LSTM, Embedding, Linear, Tensor, fastpath, no_grad
from repro.nn.rnn import LSTMCell
from tests.nn.oracles import legacy_sample_paths, sample_paths_tape

RNG = np.random.default_rng(42)


def _random(shape):
    return RNG.normal(size=shape)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------
def test_module_call_dispatches_on_grad_mode_and_fast_forward(monkeypatch):
    layer = Linear(4, 3, np.random.default_rng(0))
    x = Tensor(_random((5, 4)))
    calls = []
    monkeypatch.setattr(
        Linear, "fast_forward", lambda self, x: calls.append("raw") or x @ self.weight.data
    )
    monkeypatch.setattr(
        Linear, "forward", lambda self, x: calls.append("tape") or x @ self.weight
    )
    layer(x)  # grad enabled by default -> tape
    with no_grad():
        out = layer(x)  # -> raw kernel, result wrapped back into a Tensor
    assert calls == ["tape", "raw"]
    assert isinstance(out, Tensor) and not out.requires_grad

    # A class without fast_forward keeps its tape forward under no_grad.
    table = Embedding(6, 2, np.random.default_rng(1))
    assert table.fast_forward is None
    with no_grad():
        assert table(np.array([0, 5])).data.shape == (2, 2)


def test_module_call_unwraps_nested_state_and_keywords():
    lstm = LSTM(3, 4, np.random.default_rng(5), num_layers=2)
    x = _random((2, 6, 3))
    state = [(Tensor(_random((2, 4))), Tensor(_random((2, 4)))) for _ in range(2)]
    with no_grad():
        seq, new_state = lstm(Tensor(x), state=state)
    raw_seq, raw_state = lstm.fast_forward(x, [(h.data, c.data) for h, c in state])
    assert isinstance(seq, Tensor) and np.array_equal(seq.data, raw_seq)
    assert isinstance(new_state, list) and isinstance(new_state[0], tuple)
    for (h, c), (rh, rc) in zip(new_state, raw_state):
        assert np.array_equal(h.data, rh) and np.array_equal(c.data, rc)


def test_linear_dispatches_to_fast_path_under_no_grad():
    layer = Linear(4, 3, np.random.default_rng(0))
    x = _random((5, 4))
    with no_grad():
        out = layer(Tensor(x))
    assert out.data.shape == (5, 3)
    assert np.array_equal(out.data, layer.fast_forward(x))


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
    # The fast sigmoid uses a branch-free max trick; the clip boundary
    # (±500) and saturation region must agree with the tape op exactly.
    x = np.array([-1000.0, -500.0, -499.999, 499.999, 500.0, 1000.0])
    assert np.array_equal(fastpath.sigmoid(x), Tensor(x).sigmoid().data)


# ---------------------------------------------------------------------------
# LSTM kernels
# ---------------------------------------------------------------------------
def _tape_cell_step(cell, x, h, c):
    h_new, c_new = cell(Tensor(x), (Tensor(h), Tensor(c)))
    return h_new.data, c_new.data


def test_lstm_cell_forward_matches_tape_bitwise():
    cell = LSTMCell(5, 16, np.random.default_rng(1))
    x, h, c = _random((7, 5)), _random((7, 16)), _random((7, 16))
    fast_h, fast_c = cell.fast_forward(x, (h, c))
    tape_h, tape_c = _tape_cell_step(cell, x, h, c)
    assert np.array_equal(fast_h, tape_h)
    assert np.array_equal(fast_c, tape_c)


def test_lstm_cell_permuted_matches_tape_bitwise():
    hs = 16
    cell = LSTMCell(5, hs, np.random.default_rng(2))
    params = [(cell.w_ih.data, cell.w_hh.data, cell.bias.data)]
    (w_ih, w_hh, bias), = fastpath.prepare_lstm_params(params, hs)
    x, h, c = _random((9, 5)), _random((9, hs)), _random((9, hs))
    fast_h, fast_c, _ = fastpath.lstm_cell_permuted(x, h, c, w_ih, w_hh, bias, hs)
    tape_h, tape_c = _tape_cell_step(cell, x, h, c)
    assert np.array_equal(fast_h, tape_h)
    assert np.array_equal(fast_c, tape_c)


def test_multilayer_lstm_forward_matches_tape_bitwise():
    lstm = LSTM(5, 12, np.random.default_rng(3), num_layers=2)
    x = _random((4, 20, 5))
    fast_seq, fast_state = lstm.fast_forward(x)
    tape_seq, tape_state = lstm(Tensor(x))
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
    forecaster, _ = deepar
    net = forecaster.network
    hidden = _random((6, forecaster.hidden_size))
    mu, scale, df = net._heads(hidden)
    top = Tensor(hidden)
    tape_mu = net.mu_head(top)[..., 0].data
    tape_scale = (net.scale_head(top)[..., 0].softplus() + 1e-4).data
    tape_df = (net.df_head(top)[..., 0].softplus() + 2.0).data
    assert np.array_equal(mu, tape_mu)
    assert np.array_equal(scale, tape_scale)
    assert np.array_equal(df, tape_df)


def test_sample_paths_fast_vs_tape_identical(deepar):
    forecaster, series = deepar
    context = series[-36:]
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
