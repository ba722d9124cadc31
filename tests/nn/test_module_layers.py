"""Tests for Module registration and Linear/Dropout/LayerNorm/GLU/GRN.

Values and gradients are read off the tape composition of each layer
(``tests/nn/oracles.py::forward``); its bitwise parity with the layer's
``fast_forward`` is ``test_fastpath.py`` / ``test_tft_fastpath.py``.
"""

import numpy as np
import pytest

from repro.nn import GatedLinearUnit, GatedResidualNetwork, LayerNorm, Linear, Module
from repro.nn.layers import Dropout
from repro.nn.module import Parameter
from tests.nn.oracles import forward
from tests.nn.tensor import Tensor


def rng():
    return np.random.default_rng(11)


class TestModule:
    def test_parameter_registration(self):
        class Toy(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.inner = Linear(2, 2, rng())

        toy = Toy()
        names = dict(toy.named_parameters())
        assert "w" in names
        assert "inner.weight" in names
        assert "inner.bias" in names

    def test_num_parameters(self):
        layer = Linear(3, 4, rng())
        assert layer.num_parameters() == 3 * 4 + 4

    def test_train_eval_propagates(self):
        grn = GatedResidualNetwork(2, 2, 2, rng(), dropout=0.5)
        assert grn.dropout in list(grn.modules())
        grn.eval()
        assert all(not m.training for m in grn.modules())
        grn.train()
        assert all(m.training for m in grn.modules())

    def test_zero_grad_clears_all(self):
        layer = Linear(2, 2, rng())
        out = forward(layer, Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        src = Linear(3, 2, rng())
        dst = Linear(3, 2, np.random.default_rng(99))
        dst.load_state_dict(src.state_dict())
        np.testing.assert_array_equal(src.weight.data, dst.weight.data)

    def test_load_state_dict_rejects_mismatch(self):
        layer = Linear(3, 2, rng())
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((3, 2))})  # missing bias

    def test_load_state_dict_rejects_bad_shape(self):
        layer = Linear(3, 2, rng())
        state = layer.state_dict()
        state["weight"] = np.zeros((2, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 3, rng())
        assert forward(layer, Tensor(np.ones((7, 5)))).shape == (7, 3)

    def test_forward_matches_manual(self):
        layer = Linear(2, 2, rng())
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(forward(layer, Tensor(x)).data, expected)

    def test_no_bias(self):
        layer = Linear(2, 2, rng(), bias=False)
        assert layer.bias is None
        assert layer.num_parameters() == 4

    def test_gradients_flow(self):
        layer = Linear(3, 1, rng())
        loss = (forward(layer, Tensor(np.ones((4, 3)))) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == (3, 1)

    def test_3d_input(self):
        layer = Linear(4, 2, rng())
        assert forward(layer, Tensor(np.ones((2, 5, 4)))).shape == (2, 5, 2)


class TestDropout:
    def test_eval_is_identity(self):
        drop = Dropout(0.9)
        drop.eval()
        x = np.ones((10, 10))
        np.testing.assert_array_equal(forward(drop, Tensor(x)).data, x)

    def test_training_scales_kept_units(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        out = forward(drop, Tensor(np.ones((1000,)))).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 300 < kept.size < 700  # ~50% kept

    def test_zero_probability_identity_in_training(self):
        drop = Dropout(0.0)
        x = np.ones(5)
        np.testing.assert_array_equal(forward(drop, Tensor(x)).data, x)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestLayerNorm:
    def test_output_standardized(self):
        norm = LayerNorm(8)
        out = forward(norm, Tensor(np.random.default_rng(3).normal(2.0, 5.0, size=(4, 8)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gamma_beta_trainable(self):
        norm = LayerNorm(4)
        forward(norm, Tensor(np.random.default_rng(1).normal(size=(2, 4)))).sum().backward()
        assert norm.gamma.grad is not None
        assert norm.beta.grad is not None

    def test_constant_input_stable(self):
        norm = LayerNorm(4)
        out = forward(norm, Tensor(np.full((1, 4), 3.0)))
        assert np.all(np.isfinite(out.data))


class TestSequentialAndGRN:
    def test_glu_bounded_by_value_branch(self):
        glu = GatedLinearUnit(3, 3, rng())
        x = Tensor(np.random.default_rng(5).normal(size=(10, 3)))
        out = forward(glu, x).data
        value = forward(glu.value, x).data
        assert np.all(np.abs(out) <= np.abs(value) + 1e-12)

    def test_grn_shape_with_projection(self):
        grn = GatedResidualNetwork(6, 8, 4, rng())
        assert forward(grn, Tensor(np.ones((2, 6)))).shape == (2, 4)
        assert grn.skip is not None

    def test_grn_shape_without_projection(self):
        grn = GatedResidualNetwork(4, 8, 4, rng())
        assert grn.skip is None
        assert forward(grn, Tensor(np.ones((2, 4)))).shape == (2, 4)

    def test_grn_gradients_reach_all_parameters(self):
        grn = GatedResidualNetwork(3, 4, 3, rng())
        forward(grn, Tensor(np.random.default_rng(2).normal(size=(5, 3)))).sum().backward()
        for name, param in grn.named_parameters():
            assert param.grad is not None, f"no grad for {name}"
