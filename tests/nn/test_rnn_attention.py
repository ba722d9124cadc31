"""Tests for the LSTM and attention layers, run on their tape compositions
(``tests/nn/oracles.py``; kernel parity is ``test_fastpath.py`` /
``test_tft_fastpath.py``)."""

import numpy as np
import pytest

from repro.nn import LSTM, InterpretableMultiHeadAttention, causal_mask
from repro.nn.rnn import LSTMCell
from tests.nn.oracles import forward, initial_state, scaled_dot_product_attention
from tests.nn.tensor import Tensor


def rng():
    return np.random.default_rng(23)


class TestLSTMCell:
    def test_step_shapes(self):
        cell = LSTMCell(3, 5, rng())
        h, c = initial_state(cell, batch_size=2)
        h2, c2 = forward(cell, Tensor(np.ones((2, 3))), (h, c))
        assert h2.shape == (2, 5)
        assert c2.shape == (2, 5)

    def test_hidden_bounded_by_tanh(self):
        cell = LSTMCell(2, 4, rng())
        h, c = initial_state(cell, 1)
        for _ in range(50):
            h, c = forward(cell, Tensor(np.full((1, 2), 10.0)), (h, c))
        assert np.all(np.abs(h.data) <= 1.0)

    def test_forget_bias_initialised_to_one(self):
        cell = LSTMCell(2, 4, rng())
        np.testing.assert_array_equal(cell.bias.data[4:8], np.ones(4))
        np.testing.assert_array_equal(cell.bias.data[:4], np.zeros(4))

    def test_gradients_through_time(self):
        cell = LSTMCell(1, 3, rng())
        h, c = initial_state(cell, 1)
        x = Tensor(np.ones((1, 1)), requires_grad=True)
        for _ in range(5):
            h, c = forward(cell, x, (h, c))
        h.sum().backward()
        assert x.grad is not None
        assert np.all(np.isfinite(x.grad))

    def test_state_changes_with_input(self):
        cell = LSTMCell(1, 3, rng())
        state = initial_state(cell, 1)
        h_a, _ = forward(cell, Tensor(np.array([[1.0]])), state)
        h_b, _ = forward(cell, Tensor(np.array([[-1.0]])), state)
        assert not np.allclose(h_a.data, h_b.data)


class TestLSTM:
    def test_sequence_shapes(self):
        lstm = LSTM(input_size=2, hidden_size=4, rng=rng(), num_layers=2)
        out, state = forward(lstm, Tensor(np.ones((3, 7, 2))))
        assert out.shape == (3, 7, 4)
        assert len(state) == 2
        assert state[0][0].shape == (3, 4)

    def test_state_carryover_matches_full_run(self):
        lstm = LSTM(1, 3, rng())
        series = np.random.default_rng(4).normal(size=(1, 6, 1))
        full, _ = forward(lstm, Tensor(series))
        first, state = forward(lstm, Tensor(series[:, :3]))
        second, _ = forward(lstm, Tensor(series[:, 3:]), state)
        np.testing.assert_allclose(second.data, full.data[:, 3:], rtol=1e-10)

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            LSTM(1, 2, rng(), num_layers=0)

    def test_all_parameters_receive_grads(self):
        lstm = LSTM(2, 3, rng(), num_layers=2)
        out, _ = forward(lstm, Tensor(np.random.default_rng(8).normal(size=(2, 4, 2))))
        out.sum().backward()
        for name, param in lstm.named_parameters():
            assert param.grad is not None, f"no grad for {name}"


class TestAttention:
    def test_output_shape_and_weight_rows(self):
        q = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        kv = Tensor(np.random.default_rng(2).normal(size=(2, 5, 4)))
        out, weights = scaled_dot_product_attention(q, kv, kv)
        assert out.shape == (2, 3, 4)
        np.testing.assert_allclose(weights.data.sum(axis=-1), np.ones((2, 3)))

    def test_uniform_scores_average_values(self):
        q = Tensor(np.zeros((1, 1, 2)))
        k = Tensor(np.zeros((1, 4, 2)))
        v = Tensor(np.arange(8, dtype=float).reshape(1, 4, 2))
        out, _ = scaled_dot_product_attention(q, k, v)
        np.testing.assert_allclose(out.data[0, 0], v.data[0].mean(axis=0))

    def test_causal_mask_blocks_future(self):
        mask = causal_mask(query_len=3, key_len=3)
        assert mask[0, 1] < -1e8
        assert mask[2, 2] == 0.0
        q = Tensor(np.random.default_rng(3).normal(size=(1, 3, 2)))
        _, weights = scaled_dot_product_attention(q, q, q, mask=mask)
        assert weights.data[0, 0, 1] < 1e-9
        assert weights.data[0, 0, 2] < 1e-9

    def test_causal_mask_decoder_sees_encoder(self):
        mask = causal_mask(query_len=2, key_len=5)
        # first decoder step may see encoder (3 steps) + itself
        np.testing.assert_array_equal(mask[0, :4], np.zeros(4))
        assert mask[0, 4] < -1e8

    def test_multihead_shapes(self):
        attn = InterpretableMultiHeadAttention(d_model=8, num_heads=2, rng=rng())
        x = Tensor(np.random.default_rng(6).normal(size=(2, 5, 8)))
        out, weights = forward(attn, x, x, x)
        assert out.shape == (2, 5, 8)
        assert weights.shape == (2, 5, 5)
        np.testing.assert_allclose(weights.data.sum(axis=-1), np.ones((2, 5)), rtol=1e-8)

    def test_multihead_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            InterpretableMultiHeadAttention(d_model=7, num_heads=2, rng=rng())

    def test_multihead_gradients(self):
        attn = InterpretableMultiHeadAttention(d_model=4, num_heads=2, rng=rng())
        x = Tensor(np.random.default_rng(9).normal(size=(1, 3, 4)))
        out, _ = forward(attn, x, x, x)
        out.sum().backward()
        for name, param in attn.named_parameters():
            assert param.grad is not None, f"no grad for {name}"
