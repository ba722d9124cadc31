"""Property-based tests for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tests.nn.tensor import Tensor

finite_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(-100, 100, allow_nan=False),
)

small_arrays = arrays(
    dtype=np.float64,
    shape=st.just((4,)),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestAlgebraicLaws:
    @given(finite_arrays)
    def test_add_commutes(self, a):
        x, y = Tensor(a), Tensor(a[::-1].copy())
        np.testing.assert_allclose((x + y).data, (y + x).data)

    @given(finite_arrays)
    def test_double_negation(self, a):
        np.testing.assert_allclose((-(-Tensor(a))).data, a)

    @given(small_arrays, small_arrays)
    def test_mul_grad_is_other_operand(self, a, b):
        x = Tensor(a, requires_grad=True)
        (x * b).sum().backward()
        np.testing.assert_allclose(x.grad, b, rtol=1e-12)

    @given(small_arrays)
    def test_sum_grad_is_ones(self, a):
        x = Tensor(a, requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(a))

    @given(small_arrays)
    def test_linearity_of_grad(self, a):
        """grad of (3x).sum() is 3 * grad of x.sum()."""
        x = Tensor(a, requires_grad=True)
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, 3.0 * np.ones_like(a))


class TestNonlinearityInvariants:
    @given(finite_arrays)
    def test_sigmoid_in_unit_interval(self, a):
        out = Tensor(a).sigmoid().data
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    @given(finite_arrays)
    def test_softplus_exceeds_relu(self, a):
        x = Tensor(a)
        assert np.all(x.softplus().data >= x.relu().data - 1e-12)

    @given(finite_arrays)
    def test_softmax_is_probability_vector(self, a):
        out = Tensor(a).softmax(axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)
        assert np.all(out >= 0.0)

    @given(finite_arrays)
    def test_tanh_bounded(self, a):
        out = Tensor(a).tanh().data
        assert np.all(np.abs(out) <= 1.0)

    @given(small_arrays)
    def test_exp_log_roundtrip_grad_chain(self, a):
        x = Tensor(a, requires_grad=True)
        # log(exp(x)) == x, so grad must be exactly ones
        x.exp().log().sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(a), rtol=1e-9)


class TestShapeInvariants:
    @given(finite_arrays)
    def test_reshape_roundtrip(self, a):
        x = Tensor(a)
        np.testing.assert_array_equal(x.reshape(-1).reshape(*a.shape).data, a)

    @given(finite_arrays)
    def test_concat_split_identity(self, a):
        x = Tensor(a)
        joined = Tensor.concat([x, x], axis=0)
        assert joined.shape[0] == 2 * a.shape[0]
        np.testing.assert_array_equal(joined.data[: a.shape[0]], a)
