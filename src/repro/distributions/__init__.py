"""Output distributions for probabilistic workload forecasting."""

from .base import Distribution
from .empirical import Empirical
from .gaussian import Gaussian

__all__ = ["Distribution", "Gaussian", "Empirical"]
