"""Gaussian output distribution (used by the probabilistic MLP head)."""

from __future__ import annotations

import numpy as np
from scipy import special

from .base import Distribution, level_column

__all__ = ["Gaussian"]

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


class Gaussian(Distribution):
    """N(mu, sigma^2), batched over arbitrary-shaped parameter arrays."""

    def __init__(self, mu: np.ndarray, sigma: np.ndarray) -> None:
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be strictly positive")

    def mean(self) -> np.ndarray:
        return self.mu

    def std(self) -> np.ndarray:
        return np.broadcast_to(self.sigma, self.mu.shape).copy()

    def quantile(self, tau: float | np.ndarray) -> np.ndarray:
        # scipy's ``norm.ppf`` minus its per-call argument checks: same
        # ``_ppf(q) * scale + loc`` order, so the bits match.
        return special.ndtri(tau) * self.sigma + self.mu

    def quantiles(self, levels: "list[float] | np.ndarray") -> np.ndarray:
        return self.quantile(level_column(levels, max(self.mu.ndim, self.sigma.ndim)))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=(size, *self.mu.shape))

    def log_prob(self, value: np.ndarray) -> np.ndarray:
        # scipy's ``norm.logpdf`` in closed form: importing its ``stats``
        # package would cost every process half a second for this line.
        z = (np.asarray(value, dtype=np.float64) - self.mu) / self.sigma
        return -0.5 * z * z - _HALF_LOG_2PI - np.log(self.sigma)

    def __repr__(self) -> str:
        return f"Gaussian(mu.shape={self.mu.shape})"
