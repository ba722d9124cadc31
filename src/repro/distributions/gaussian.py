"""Gaussian output distribution (used by the probabilistic MLP head)."""

from __future__ import annotations

import functools
import math

import numpy as np

from .base import Distribution, level_column

__all__ = ["Gaussian", "ndtri"]

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

# Cephes ``ndtri``: P0/Q0 on |y - 0.5| <= 0.5 - exp(-2), P1/Q1 on the tails where
# x = sqrt(-2 log y) < 8, P2/Q2 beyond.  Each Q leads with ``p1evl``'s implicit 1.
_S2PI, _EXPM2 = 2.50662827463100050242e0, 0.13533528323661269189  # sqrt(2 pi), exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple) -> float:
    """Cephes ``polevl``: Horner's rule, highest power first."""
    a = coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _ndtri(y: float) -> float:
    """One level through the Cephes routine, float64 op for op."""
    if not 0.0 < y < 1.0:
        return -math.inf if y == 0.0 else math.inf if y == 1.0 else math.nan
    upper = y > 1.0 - _EXPM2
    if upper:
        y = 1.0 - y
    if y > _EXPM2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q)
    return x if upper else -x


@functools.lru_cache(maxsize=256)
def ndtri(levels: tuple[float, ...]) -> np.ndarray:
    """Standard normal quantiles of ``levels``: ``scipy.special.ndtri``, bit for bit.

    The Cephes ``ndtri`` (Stephen L. Moshier; scipy ships it) ported with
    ``math`` in the same float64 operations and order - numpy's ``log``
    is not libm's, so the tail is not vectorised.  Edges are scipy's: 0 ->
    -inf, 1 -> +inf, NaN or outside [0, 1] -> NaN.  Memoised per tuple in
    a bounded cache (any level may reach :meth:`Gaussian.quantile`), so
    the column is shared and read-only.
    """
    column = np.array([_ndtri(float(level)) for level in levels], dtype=np.float64)
    column.flags.writeable = False
    return column


class Gaussian(Distribution):
    """N(mu, sigma^2), batched over arbitrary-shaped parameter arrays."""

    def __init__(self, mu: np.ndarray, sigma: np.ndarray) -> None:
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        if (self.sigma <= 0).any():
            raise ValueError("sigma must be strictly positive")

    def mean(self) -> np.ndarray:
        return self.mu

    def std(self) -> np.ndarray:
        return np.broadcast_to(self.sigma, self.mu.shape).copy()

    def quantile(self, tau: float | np.ndarray) -> np.ndarray:
        # ``norm.ppf``'s ``ndtri(q) * scale + loc`` order, through the
        # Cephes port: the bits match scipy's.
        tau = np.asarray(tau, dtype=np.float64)
        return ndtri(tuple(tau.ravel().tolist())).reshape(tau.shape) * self.sigma + self.mu

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
