"""Quantile-selection policies for the Robust Auto-Scaling Manager.

A policy answers one question per decision horizon: *which quantile level
should guide resource allocation at each step t?*  Three policies realise
the paper's spectrum of conservatism:

* :class:`FixedQuantilePolicy` — Eq. 6's basic robust strategy: one tau
  for the whole horizon.
* :class:`UncertaintyAwarePolicy` — Algorithm 1: pick the cautious tau2
  where per-step uncertainty U_t (Eq. 8) meets the threshold rho, the
  optimistic tau1 otherwise.
* :class:`StaircasePolicy` — the generalisation the paper sketches: a
  monotone ladder of (uncertainty cutoff, tau) rungs for finer control.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..forecast.base import QuantileForecast
from .uncertainty import quantile_uncertainty

__all__ = [
    "QuantilePolicy",
    "FixedQuantilePolicy",
    "UncertaintyAwarePolicy",
    "StaircasePolicy",
]


class QuantilePolicy(ABC):
    """Maps a quantile forecast to a per-step quantile level tau_t."""

    @abstractmethod
    def levels_for(self, uncertainty: np.ndarray) -> np.ndarray:
        """tau_t from the per-step uncertainty U_t (Eq. 8), shape (H,)."""

    def select_levels(self, forecast: QuantileForecast) -> np.ndarray:
        """Return the quantile level to use at each step, shape (H,)."""
        return self.levels_for(quantile_uncertainty(forecast))

    def bound_workload(
        self, forecast: QuantileForecast, levels: np.ndarray | None = None
    ) -> np.ndarray:
        """The per-step workload upper bound w-hat_t^{tau_t} (Eq. 7 LHS).

        ``levels`` is ``select_levels(forecast)`` when the caller holds it.
        """
        if levels is None:
            levels = self.select_levels(forecast)
        bound = np.empty(forecast.horizon)
        for tau in np.unique(levels):  # one series lookup per distinct level
            chosen = levels == tau
            bound[chosen] = forecast.at(tau)[chosen]
        return bound

    @property
    def name(self) -> str:
        return type(self).__name__


class FixedQuantilePolicy(QuantilePolicy):
    """Eq. 6: a single quantile level across the whole horizon."""

    def __init__(self, tau: float) -> None:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        self.tau = tau

    def levels_for(self, uncertainty: np.ndarray) -> np.ndarray:
        return np.full(len(uncertainty), self.tau)

    def bound_workload(
        self, forecast: QuantileForecast, levels: np.ndarray | None = None
    ) -> np.ndarray:
        return forecast.at(self.tau)

    @property
    def name(self) -> str:
        return f"fixed-{self.tau}"


class UncertaintyAwarePolicy(QuantilePolicy):
    """Algorithm 1: two optional levels switched by per-step uncertainty.

    Parameters
    ----------
    tau_optimistic, tau_conservative:
        The two optional quantile levels (tau1 < tau2 in the paper).
    uncertainty_threshold:
        rho — at or above it the conservative level is used.
    """

    def __init__(
        self,
        tau_optimistic: float,
        tau_conservative: float,
        uncertainty_threshold: float,
    ) -> None:
        if not 0.0 < tau_optimistic < 1.0 or not 0.0 < tau_conservative < 1.0:
            raise ValueError("quantile levels must be in (0, 1)")
        if tau_optimistic > tau_conservative:
            raise ValueError(
                f"tau_optimistic ({tau_optimistic}) must not exceed "
                f"tau_conservative ({tau_conservative})"
            )
        if uncertainty_threshold < 0:
            raise ValueError("uncertainty threshold must be non-negative")
        self.tau_optimistic = tau_optimistic
        self.tau_conservative = tau_conservative
        self.uncertainty_threshold = uncertainty_threshold

    def levels_for(self, uncertainty: np.ndarray) -> np.ndarray:
        return np.where(
            uncertainty >= self.uncertainty_threshold,
            self.tau_conservative,
            self.tau_optimistic,
        )

    @property
    def name(self) -> str:
        return f"adaptive-{self.tau_optimistic}/{self.tau_conservative}"


class StaircasePolicy(QuantilePolicy):
    """Multi-level extension: a ladder of (uncertainty cutoff, tau) rungs.

    ``rungs`` is a list of (cutoff, tau) sorted by cutoff; a step with
    uncertainty U_t uses the tau of the highest rung whose cutoff is
    <= U_t.  The first rung's cutoff should be 0 (the base level).
    Taus must be non-decreasing with cutoffs — higher uncertainty should
    never pick a *less* conservative level.
    """

    def __init__(self, rungs: list[tuple[float, float]]) -> None:
        if not rungs:
            raise ValueError("need at least one rung")
        cutoffs = [cutoff for cutoff, _ in rungs]
        taus = [tau for _, tau in rungs]
        if sorted(cutoffs) != cutoffs or len(set(cutoffs)) != len(cutoffs):
            raise ValueError("rung cutoffs must be strictly increasing")
        if sorted(taus) != taus:
            raise ValueError("rung taus must be non-decreasing")
        if any(not 0.0 < tau < 1.0 for tau in taus):
            raise ValueError("quantile levels must be in (0, 1)")
        if cutoffs[0] != 0.0:
            raise ValueError("first rung cutoff must be 0 (the base level)")
        self.rungs = list(rungs)

    def levels_for(self, uncertainty: np.ndarray) -> np.ndarray:
        cutoffs = np.array([cutoff for cutoff, _ in self.rungs])
        taus = np.array([tau for _, tau in self.rungs])
        positions = np.searchsorted(cutoffs, uncertainty, side="right") - 1
        return taus[positions]

    @property
    def name(self) -> str:
        return f"staircase-{len(self.rungs)}"
