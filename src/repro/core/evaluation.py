"""Rolling evaluation of auto-scaling strategies over a test trace.

Reproduces the paper's Section IV-C experimental procedure: walk the
test series in decision windows of ``horizon`` steps; at each decision
point a predictive strategy sees only the preceding ``context_length``
actual workloads, commits a plan for the next horizon, and is scored
against what actually happened.  Reactive strategies instead replay
step by step.  All strategies are compared on the same concatenated
(allocation, actual) stream via under-/over-provisioning rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs import get_registry
from .plan import Planner, ProvisioningReport, ScalingPlan, evaluate_plan
from .reactive import ReactiveScaler

__all__ = ["RollingEvaluation", "evaluate_strategy", "decision_points"]


@dataclass
class RollingEvaluation:
    """Result of a rolling evaluation.

    ``nodes`` and ``actual`` are the concatenated per-step allocations
    and realised workloads over every evaluated window; ``report`` is
    the combined scorecard and ``window_reports`` the per-decision ones.
    """

    strategy: str
    nodes: np.ndarray
    actual: np.ndarray
    threshold: float
    report: ProvisioningReport
    window_reports: list[ProvisioningReport]


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
    strategy: Planner | ReactiveScaler,
    values: np.ndarray,
    context_length: int,
    horizon: int,
    threshold: float,
    stride: int | None = None,
    on_window: Callable[[int, ScalingPlan, np.ndarray], None] | None = None,
    series_start_index: int = 0,
) -> RollingEvaluation:
    """Run one strategy over a test series and score it.

    Parameters
    ----------
    strategy:
        A planning strategy (``plan(context, start_index)``) or a
        :class:`ReactiveScaler` (replayed step by step over the same
        evaluation span so rates are directly comparable).
    values:
        The test workload series (actual utilizations).
    on_window:
        Optional callback ``(decision_index, plan, actual_window)``
        invoked per decision — used by padding-enhanced strategies to
        feed back observed errors.
    series_start_index:
        Absolute index of ``values[0]`` in the original trace.  Critical
        for calendar-feature phase alignment: when ``values`` is a test
        split, pass the training length, otherwise forecasters see
        time-of-day features shifted by ``train_length mod steps_per_day``.
    """
    values = np.asarray(values, dtype=np.float64)
    points = decision_points(len(values), context_length, horizon, stride)
    metrics = get_registry()

    if isinstance(strategy, ReactiveScaler):
        with metrics.span("evaluate", strategy=strategy.name):
            span_start, span_end = points[0], points[-1] + horizon
            replay_plan = strategy.replay(values[: span_end], threshold)
            nodes = replay_plan.nodes[span_start:span_end]
            actual = values[span_start:span_end]
            combined = ScalingPlan(nodes=nodes, threshold=threshold, strategy=strategy.name)
            window_reports = [
                evaluate_plan(
                    ScalingPlan(
                        nodes=nodes[p - span_start : p - span_start + horizon],
                        threshold=threshold,
                        strategy=strategy.name,
                    ),
                    values[p : p + horizon],
                )
                for p in points
            ]
            result = RollingEvaluation(
                strategy=strategy.name,
                nodes=nodes,
                actual=actual,
                threshold=threshold,
                report=evaluate_plan(combined, actual),
                window_reports=window_reports,
            )
        _count_evaluation(metrics, result, len(points))
        return result

    all_nodes: list[np.ndarray] = []
    all_actual: list[np.ndarray] = []
    window_reports = []
    with metrics.span("evaluate", strategy=strategy.name):
        for point in points:
            context = values[point - context_length : point]
            actual_window = values[point : point + horizon]
            with metrics.span("plan"):
                plan = strategy.plan(
                    context, start_index=series_start_index + point - context_length
                )
            if plan.horizon != horizon:
                raise ValueError(
                    f"strategy {strategy.name} planned {plan.horizon} steps, "
                    f"expected {horizon}"
                )
            if on_window is not None:
                on_window(point, plan, actual_window)
            all_nodes.append(plan.nodes)
            all_actual.append(actual_window)
            window_reports.append(evaluate_plan(plan, actual_window))

        nodes = np.concatenate(all_nodes)
        actual = np.concatenate(all_actual)
        combined = ScalingPlan(nodes=nodes, threshold=threshold, strategy=strategy.name)
        result = RollingEvaluation(
            strategy=strategy.name,
            nodes=nodes,
            actual=actual,
            threshold=threshold,
            report=evaluate_plan(combined, actual),
            window_reports=window_reports,
        )
    _count_evaluation(metrics, result, len(points))
    return result


def _count_evaluation(metrics, result: RollingEvaluation, windows: int) -> None:
    """Per-strategy cost/violation counters for a finished evaluation."""
    labels = {"strategy": result.strategy}
    metrics.counter("evaluation.windows", **labels).inc(windows)
    metrics.counter("evaluation.steps", **labels).inc(len(result.nodes))
    metrics.counter("evaluation.violation_steps", **labels).inc(
        result.report.violation_steps
    )
    metrics.counter("evaluation.node_steps", **labels).inc(result.report.total_nodes)
