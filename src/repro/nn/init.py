"""Weight initialization schemes.

All initializers take an explicit :class:`numpy.random.Generator` so model
construction is fully reproducible — a requirement for the benchmark
harness, where paper figures must regenerate identically run to run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "orthogonal", "zeros", "ones"]


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform init: U(-a, a) with a = gain * sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal init (used for recurrent weights to stabilise BPTT)."""
    if len(shape) != 2:
        raise ValueError("orthogonal init requires a 2-D shape")
    rows, cols = shape
    a = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # make the decomposition unique
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Fan-in/fan-out for a weight stored as (in_features, out_features).

    Layers in this package compute ``x @ W``, so the first axis is the
    input dimension.
    """
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = shape[0]
    fan_out = int(np.prod(shape[1:]))
    return fan_in, fan_out
