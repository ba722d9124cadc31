"""Distribution interface shared by the probabilistic forecasters.

A forecaster that learns a parametric distribution (paper Section III-B,
"Learn parametric distributions") emits one :class:`Distribution` per
forecast step; quantile forecasts are then read off via :meth:`quantile`
or estimated by sampling (the paper's route for DeepAR).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Distribution"]


class Distribution(ABC):
    """A (possibly batched) univariate probability distribution."""

    @abstractmethod
    def mean(self) -> np.ndarray:
        """Expected value."""

    @abstractmethod
    def std(self) -> np.ndarray:
        """Standard deviation (a direct uncertainty measure, Section III-C2)."""

    @abstractmethod
    def quantile(self, tau: float | np.ndarray) -> np.ndarray:
        """Inverse CDF at level ``tau``."""

    @abstractmethod
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` samples per batch element; shape (size, *batch)."""

    @abstractmethod
    def log_prob(self, value: np.ndarray) -> np.ndarray:
        """Log density at ``value``."""

    @abstractmethod
    def quantiles(self, levels: "list[float] | np.ndarray") -> np.ndarray:
        """Quantiles at several levels in one broadcast call.

        Shape (len(levels), *batch); row ``i`` is bit-identical to
        ``quantile(levels[i])``.
        """


def level_column(levels: "list[float] | np.ndarray", batch_ndim: int) -> np.ndarray:
    """``levels`` as shape (L, 1, ..., 1), broadcastable against a batch."""
    return np.asarray(levels, dtype=np.float64).reshape(-1, *(1,) * batch_ndim)
