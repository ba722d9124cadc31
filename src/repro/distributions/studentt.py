"""Location-scale Student-t output distribution.

The paper chooses Student-t for the DeepAR head because "it has longer
tails and a larger variance, allowing it to better handle outliers and
noise" (Section III-B2).
"""

from __future__ import annotations

import numpy as np

from .base import Distribution, level_column

__all__ = ["StudentT"]


class StudentT(Distribution):
    """t_nu(mu, s): ``mu + s * T`` with T standard Student-t, nu = df."""

    def __init__(self, mu: np.ndarray, scale: np.ndarray, df: np.ndarray | float) -> None:
        self.mu = np.asarray(mu, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.df = np.asarray(df, dtype=np.float64)
        if np.any(self.scale <= 0):
            raise ValueError("scale must be strictly positive")
        if np.any(self.df <= 0):
            raise ValueError("degrees of freedom must be strictly positive")

    def mean(self) -> np.ndarray:
        # Undefined for df <= 1; return the location (mode) there.
        return np.broadcast_to(self.mu, np.broadcast_shapes(self.mu.shape, self.df.shape)).copy()

    def std(self) -> np.ndarray:
        # Finite only for df > 2; fall back to the scale otherwise so the
        # uncertainty signal stays usable.
        df = np.broadcast_to(self.df, np.broadcast_shapes(self.scale.shape, self.df.shape))
        scale = np.broadcast_to(self.scale, df.shape)
        with np.errstate(invalid="ignore", divide="ignore"):
            variance_factor = np.where(df > 2, df / (df - 2), 1.0)
        return scale * np.sqrt(variance_factor)

    def quantile(self, tau: float | np.ndarray) -> np.ndarray:
        # scipy's ``t.ppf`` minus its argument checks, so the bits match;
        # imported here because no served loop builds a Student-t.
        from scipy import special
        return special.stdtrit(self.df, tau) * self.scale + self.mu

    def quantiles(self, levels: "list[float] | np.ndarray") -> np.ndarray:
        batch_ndim = max(self.mu.ndim, self.scale.ndim, self.df.ndim)
        return self.quantile(level_column(levels, batch_ndim))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        shape = np.broadcast_shapes(self.mu.shape, self.scale.shape, self.df.shape)
        standard = rng.standard_t(np.broadcast_to(self.df, (size, *shape)))
        return self.mu + self.scale * standard

    def log_prob(self, value: np.ndarray) -> np.ndarray:
        # scipy's ``t.logpdf`` in closed form (see ``Gaussian.log_prob``).
        from scipy import special
        df = self.df
        z = (np.asarray(value, dtype=np.float64) - self.mu) / self.scale
        return (
            special.gammaln(0.5 * (df + 1.0))
            - special.gammaln(0.5 * df)
            - 0.5 * np.log(df * np.pi)
            - 0.5 * (df + 1.0) * np.log1p(z * z / df)
            - np.log(self.scale)
        )

    def __repr__(self) -> str:
        return f"StudentT(mu.shape={self.mu.shape})"
