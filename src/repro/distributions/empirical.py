"""Empirical distribution built from Monte-Carlo sample paths.

DeepAR produces quantile forecasts by ancestral sampling: draw many
trajectories from the learned model, then read quantiles off the sample
cloud per step (paper Section III-B2, "sampling methods").
"""

from __future__ import annotations

import numpy as np

from .base import Distribution

__all__ = ["Empirical"]


class Empirical(Distribution):
    """Distribution represented by samples along axis 0.

    ``samples`` has shape (num_samples, *batch); every statistic reduces
    over axis 0.
    """

    def __init__(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim < 1 or samples.shape[0] < 2:
            raise ValueError("need at least 2 samples along axis 0")
        self.samples = samples

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def std(self) -> np.ndarray:
        return self.samples.std(axis=0, ddof=1)

    def quantile(self, tau: float | np.ndarray) -> np.ndarray:
        return np.quantile(self.samples, tau, axis=0)

    def quantiles(self, levels: "list[float] | np.ndarray") -> np.ndarray:
        # A 1-D ``q`` already yields (L, *batch): one partition serves
        # every level.
        return np.quantile(self.samples, levels, axis=0)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        picks = rng.integers(0, self.num_samples, size=size)
        return self.samples[picks]

    def log_prob(self, value: np.ndarray) -> np.ndarray:
        """Gaussian kernel-density estimate of the log density.

        Bandwidth follows Silverman's rule of thumb per batch element.
        """
        value = np.asarray(value, dtype=np.float64)
        spread = self.samples.std(axis=0, ddof=1)
        bandwidth = np.maximum(1.06 * spread * self.num_samples ** (-0.2), 1e-9)
        z = (value[None, ...] - self.samples) / bandwidth
        kernel = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
        density = kernel.mean(axis=0) / bandwidth
        return np.log(np.maximum(density, 1e-300))

    def __repr__(self) -> str:
        return f"Empirical(num_samples={self.num_samples}, batch={self.samples.shape[1:]})"
