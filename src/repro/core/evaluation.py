"""Rolling evaluation of auto-scaling strategies over a test trace.

Reproduces the paper's Section IV-C experimental procedure with the loop
the daemon runs: one :class:`~repro.core.runtime.AutoscalingRuntime`
walks the test series, commits a plan every ``replan_every`` steps
(default: back-to-back horizons) from the preceding ``context_length``
actual workloads, and its allocations are scored against what actually
happened.  Predictive and reactive strategies go through the same loop
and are scored on the same steps, once each; a reactive scaler plans one
step at a time, so the runtime replans it every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .plan import Planner, ProvisioningReport, ScalingPlan, evaluate_plan
from .runtime import AutoscalingRuntime

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.monitor import ModelHealthMonitor

__all__ = ["RollingEvaluation", "evaluate_strategy", "decision_points"]


@dataclass
class RollingEvaluation:
    """Result of a rolling evaluation.

    ``nodes`` and ``actual`` are the per-step allocations and realised
    workloads over the scored span; ``report`` is their scorecard.
    """

    strategy: str
    nodes: np.ndarray
    actual: np.ndarray
    threshold: float
    report: ProvisioningReport


def decision_points(
    num_steps: int, context_length: int, horizon: int, stride: int | None = None
) -> list[int]:
    """Indices (into the series) where planning decisions are made.

    Decisions need ``context_length`` history before them and ``horizon``
    future after them; consecutive decisions are ``stride`` apart
    (default: back-to-back horizons, the paper's setting).
    """
    stride = stride or horizon
    if stride < 1:
        raise ValueError("stride must be >= 1")
    points = list(range(context_length, num_steps - horizon + 1, stride))
    if not points:
        raise ValueError(
            f"series of {num_steps} steps too short for context {context_length} "
            f"+ horizon {horizon}"
        )
    return points


def evaluate_strategy(
    planner: Planner,
    values: np.ndarray,
    context_length: int,
    horizon: int,
    threshold: float,
    *,
    replan_every: int | None = None,
    series_start_index: int = 0,
    monitor: "ModelHealthMonitor | None" = None,
) -> RollingEvaluation:
    """Run one strategy over a test series and score it.

    The runtime is driven over ``values[:end]`` and scored on
    ``[context_length, end)``, where ``end`` is the last decision point
    (see :func:`decision_points`) plus ``horizon``.  A planner that raises
    fails the evaluation.

    Parameters
    ----------
    planner:
        Any :class:`~repro.core.plan.Planner`; a reactive scaler needs
        ``threshold=`` at construction.
    values:
        The test workload series (actual utilizations).
    replan_every:
        Steps between decisions; defaults to ``horizon``.
    series_start_index:
        Absolute index of ``values[0]`` in the original trace.  Critical
        for calendar-feature phase alignment: when ``values`` is a test
        split, pass the training length, otherwise forecasters see
        time-of-day features shifted by ``train_length mod steps_per_day``.
    monitor:
        Optional :class:`~repro.obs.monitor.ModelHealthMonitor` the
        runtime feeds with every predictive step's forecast quantiles
        and realised value.
    """
    values = np.asarray(values, dtype=np.float64)
    end = decision_points(len(values), context_length, horizon, replan_every)[-1] + horizon
    runtime = AutoscalingRuntime(
        planner, context_length, horizon, threshold, replan_every=replan_every,
        start_tick=series_start_index, monitor=monitor,
        on_planner_error="raise", max_plan_retries=0,
    )
    nodes = runtime.run(values[:end])[context_length:]
    actual = values[context_length:end]
    plan = ScalingPlan(nodes=nodes, threshold=threshold, strategy=planner.name)
    return RollingEvaluation(planner.name, nodes, actual, threshold, evaluate_plan(plan, actual))
