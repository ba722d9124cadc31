"""Reactive auto-scalers (the paper's non-predictive baselines).

"Reactive scalers, such as Google Autopilot and Kubernetes default HPA
... employ a moving window approach to gather resource usage statistics
over a recent period, which in turn informs the scaling of resources"
(Section IV-A2).  Two window statistics are implemented, matching the
paper's *Reactive-Max* and *Reactive-Avg* (exponentially-decaying
weights, half-life 6 intervals).

A reactive scaler's decision for time t can only see workloads up to
t-1 — the inherent lag the paper's Figure 9 exposes.
"""

from __future__ import annotations

import numpy as np

from .plan import ScalingPlan, required_nodes

__all__ = ["ReactiveScaler", "ReactiveMaxScaler", "ReactiveAvgScaler"]


class ReactiveScaler:
    """Base: allocate from a trailing window of observed workloads.

    Constructed with ``threshold``, a reactive scaler is a
    :class:`~repro.core.plan.Planner`: :meth:`plan` holds the
    trailing-window estimate flat for ``horizon`` steps (default one),
    so a runtime replans it every step — the paper's step-by-step
    protocol, and exactly the lag Figure 9 exposes.  Without
    ``threshold`` it only supplies :meth:`window_statistic`, as the
    runtime's cold-start fallback.
    """

    def __init__(
        self,
        window: int = 6,
        *,
        threshold: float | None = None,
        horizon: int = 1,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if threshold is not None and threshold <= 0:
            raise ValueError("threshold must be strictly positive")
        self.window = window
        self.threshold = threshold
        self.horizon = horizon

    def window_statistic(self, recent: np.ndarray) -> float:
        """The demand estimate extracted from the trailing window."""
        raise NotImplementedError

    def plan(self, context: np.ndarray, start_index: int = 0) -> ScalingPlan:
        """Commit a flat ``horizon``-step plan from the trailing window.

        Requires ``threshold`` to have been set at construction; the
        estimate comes from the last ``window`` values of ``context``
        (``start_index`` is accepted for protocol conformance and
        ignored — reactive scaling is calendar-blind).
        """
        if self.threshold is None:
            raise ValueError(f"{self.name} needs threshold= at construction to plan()")
        context = np.asarray(context, dtype=np.float64)
        if context.size == 0:
            raise ValueError("plan() needs at least one observed workload")
        estimate = max(self.window_statistic(context[-self.window :]), 0.0)
        nodes = np.full(
            self.horizon,
            required_nodes(np.array([estimate]), self.threshold)[0],
            dtype=np.int64,
        )
        return ScalingPlan(nodes=nodes, threshold=self.threshold, strategy=self.name)

    @property
    def name(self) -> str:
        return type(self).__name__


class ReactiveMaxScaler(ReactiveScaler):
    """Scale to the maximum workload observed in the window."""

    def window_statistic(self, recent: np.ndarray) -> float:
        return float(recent.max())

    @property
    def name(self) -> str:
        return "Reactive-Max"


class ReactiveAvgScaler(ReactiveScaler):
    """Scale to an exponentially-decaying weighted average of the window.

    Weights halve every ``half_life`` intervals (paper: half-life 6, so
    with the default 6-step window the newest observation dominates).
    """

    def __init__(
        self,
        window: int = 6,
        half_life: float = 6.0,
        *,
        threshold: float | None = None,
        horizon: int = 1,
    ) -> None:
        super().__init__(window, threshold=threshold, horizon=horizon)
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.half_life = half_life

    def window_statistic(self, recent: np.ndarray) -> float:
        ages = np.arange(len(recent) - 1, -1, -1, dtype=np.float64)  # newest age 0
        weights = 0.5 ** (ages / self.half_life)
        return float((recent * weights).sum() / weights.sum())

    @property
    def name(self) -> str:
        return "Reactive-Avg"
