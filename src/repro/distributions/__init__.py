"""Output distributions for probabilistic workload forecasting."""

from .empirical import Empirical
from .gaussian import Gaussian

__all__ = ["Gaussian", "Empirical"]
