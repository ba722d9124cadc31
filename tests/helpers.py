"""Shared test utilities: numerical gradient checking, decision comparison."""

from __future__ import annotations

from typing import Callable

import numpy as np

from tests.nn.tensor import Tensor


def numerical_gradient(
    fn: Callable[[Tensor], Tensor], value: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` at ``value``."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = float(fn(Tensor(value)).data)
        flat[i] = original - eps
        lower = float(fn(Tensor(value)).data)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2.0 * eps)
    return grad


def assert_grad_matches(
    fn: Callable[[Tensor], Tensor],
    value: np.ndarray,
    rtol: float = 1e-5,
    atol: float = 1e-7,
) -> None:
    """Check reverse-mode gradient of scalar ``fn`` against finite differences."""
    value = np.asarray(value, dtype=np.float64)
    x = Tensor(value.copy(), requires_grad=True)
    out = fn(x)
    assert out.size == 1, "gradcheck requires a scalar output"
    out.backward()
    expected = numerical_gradient(fn, value)
    np.testing.assert_allclose(x.grad, expected, rtol=rtol, atol=atol)


def decision_states(decisions) -> list:
    """Decisions in a form ``==`` compares bit for bit.

    Plan arrays (forecast metadata included) go through
    ``ScalingPlan.to_state()``'s raw-byte records, tick / source and the
    derived statistics through ``Decision.record()``.
    """
    return [(d.record(), d.plan.to_state()) for d in decisions]
