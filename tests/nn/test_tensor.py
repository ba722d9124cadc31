"""Unit tests for the autograd Tensor: every op gradient-checked."""

import numpy as np
import pytest

from tests.nn.tensor import Tensor, is_grad_enabled, no_grad

from tests.helpers import assert_grad_matches

RNG = np.random.default_rng(7)


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_grad(self):
        assert_grad_matches(lambda x: (x + x + 3.0).sum(), RNG.normal(size=(3, 4)))

    def test_add_broadcast_grad(self):
        bias = Tensor(RNG.normal(size=4), requires_grad=True)
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_radd_scalar(self):
        out = 2.0 + Tensor([1.0])
        assert out.data[0] == 3.0

    def test_sub_grad(self):
        assert_grad_matches(lambda x: (x - 2.0 * x).sum(), RNG.normal(size=5))

    def test_rsub(self):
        out = 5.0 - Tensor([2.0])
        assert out.data[0] == 3.0

    def test_mul_grad(self):
        y = RNG.normal(size=(2, 3))
        assert_grad_matches(lambda x: (x * y).sum(), RNG.normal(size=(2, 3)))

    def test_div_grad(self):
        assert_grad_matches(
            lambda x: (x / 3.0 + 1.0 / x).sum(), RNG.uniform(0.5, 2.0, size=(4,))
        )

    def test_div_denominator_grad(self):
        denom = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        (Tensor([8.0, 8.0]) / denom).sum().backward()
        np.testing.assert_allclose(denom.grad, [-2.0, -0.5])

    def test_pow_grad(self):
        assert_grad_matches(lambda x: (x**3).sum(), RNG.normal(size=4))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        assert_grad_matches(lambda x: (-x).sum(), RNG.normal(size=3))


class TestMatmul:
    def test_matmul_values(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        b = np.arange(12, dtype=float).reshape(3, 4)
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_array_equal(out.data, a @ b)

    def test_matmul_grad_left(self):
        b = RNG.normal(size=(3, 4))
        assert_grad_matches(lambda x: (x @ b).sum(), RNG.normal(size=(2, 3)))

    def test_matmul_grad_right(self):
        a = Tensor(RNG.normal(size=(2, 3)))
        b = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        (a @ b).sum().backward()
        expected = a.data.T @ np.ones((2, 4))
        np.testing.assert_allclose(b.grad, expected)

    def test_batched_matmul_grad(self):
        b = RNG.normal(size=(2, 4, 5))
        assert_grad_matches(lambda x: (x @ b).sum(), RNG.normal(size=(2, 3, 4)))

    def test_matrix_vector_grad(self):
        v = RNG.normal(size=3)
        assert_grad_matches(lambda x: (x @ v).sum(), RNG.normal(size=(2, 3)))


class TestNonlinearities:
    @pytest.mark.parametrize(
        "name",
        ["exp", "log", "sqrt", "tanh", "sigmoid", "relu", "softplus", "abs"],
    )
    def test_elementwise_grad(self, name):
        domain = RNG.uniform(0.2, 2.0, size=(3, 3))  # positive: safe for log/sqrt
        assert_grad_matches(lambda x: getattr(x, name)().sum(), domain)

    def test_sigmoid_extreme_values_stable(self):
        out = Tensor([-1000.0, 1000.0]).sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_softplus_large_input(self):
        out = Tensor([800.0]).softplus()
        np.testing.assert_allclose(out.data, [800.0])

    def test_clip_grad_masks_saturated(self):
        x = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_maximum_grad_routing(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        a.maximum(b).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 0.0])


class TestReductions:
    def test_sum_axis_grad(self):
        assert_grad_matches(lambda x: x.sum(axis=0).sum(), RNG.normal(size=(3, 4)))

    def test_sum_keepdims(self):
        out = Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_sum_negative_axis_grad(self):
        assert_grad_matches(lambda x: (x.sum(axis=-1) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_mean_value(self):
        assert Tensor([2.0, 4.0]).mean().item() == 3.0

    def test_mean_grad(self):
        assert_grad_matches(lambda x: x.mean(), RNG.normal(size=(4, 5)))

    def test_max_grad_unique(self):
        x = Tensor(np.array([1.0, 7.0, 3.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_max_grad_ties_split(self):
        x = Tensor(np.array([5.0, 5.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 0.0]]))
        np.testing.assert_array_equal(x.max(axis=1).data, [2.0, 3.0])

    def test_var_matches_numpy(self):
        data = RNG.normal(size=20)
        np.testing.assert_allclose(Tensor(data).var().item(), data.var(), rtol=1e-12)


class TestShapes:
    def test_reshape_grad(self):
        assert_grad_matches(lambda x: (x.reshape(6) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_transpose_grad(self):
        y = RNG.normal(size=(4, 3))
        assert_grad_matches(lambda x: (x.transpose() * y).sum(), RNG.normal(size=(3, 4)))

    def test_swapaxes(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)))
        assert x.swapaxes(1, 2).shape == (2, 4, 3)

    def test_getitem_grad(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        x[1:3].sum().backward()
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_integer_array_accumulates(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_concat_grad(self):
        a = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        Tensor.concat([a, b], axis=0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((3, 2)))

    def test_stack_grad(self):
        parts = [Tensor(RNG.normal(size=3), requires_grad=True) for _ in range(4)]
        Tensor.stack(parts, axis=0).sum().backward()
        for part in parts:
            np.testing.assert_array_equal(part.grad, np.ones(3))


class TestComposite:
    def test_softmax_rows_sum_to_one(self):
        out = Tensor(RNG.normal(size=(5, 7))).softmax(axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5))

    def test_softmax_grad(self):
        w = RNG.normal(size=(2, 3))
        assert_grad_matches(
            lambda x: (x.softmax(axis=-1) * w).sum(), RNG.normal(size=(2, 3))
        )

    def test_log_softmax_consistency(self):
        x = Tensor(RNG.normal(size=(3, 4)))
        np.testing.assert_allclose(
            x.log_softmax().data, np.log(x.softmax().data), rtol=1e-10
        )


class TestAutogradMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_twice_accumulates(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).backward()
        x2 = Tensor(np.array([1.0]), requires_grad=True)
        assert x.grad[0] == 2.0
        del x2

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_constant_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert is_grad_enabled()
        assert not y.requires_grad

    def test_detach_cuts_tape(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * 2.0).detach() * 3.0
        assert not y.requires_grad

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_diamond_graph_grad(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        (a * b).backward()  # d/dx [2x(x+1)] = 4x + 2
        np.testing.assert_allclose(x.grad, [14.0])

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_item_and_numpy(self):
        t = Tensor([[5.0]])
        assert t.item() == 5.0
        assert t.numpy() is t.data

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
