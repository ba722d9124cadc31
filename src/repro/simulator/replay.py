"""Replay a scaling plan against an actual workload on the simulator.

This closes the loop the paper's evaluation implies: the plan's node
counts are enacted as scale operations on a :class:`DisaggregatedCluster`
(with real warm-up delays), the actual utilization trace is applied, and
per-interval outcomes are recorded — including violations that exist
*only* because a freshly added node was still warming.

At the paper's 10-minute intervals the warm-up effect is negligible
(their justification for ignoring scaling overhead); the Fig. 5 bench
quantifies that claim by shrinking the interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.plan import ScalingPlan
from ..obs import get_registry
from .cluster import DisaggregatedCluster
from .engine import Simulation
from .storage import SharedStorage

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.schedule import FaultSchedule

__all__ = ["IntervalOutcome", "ReplayResult", "replay_plan"]


@dataclass(frozen=True)
class IntervalOutcome:
    """What happened in one interval of the replay.

    ``effective_nodes`` is the time-weighted serving capacity over the
    interval (a node that spent the first 4 of 600 seconds warming
    contributes 596/600); per-node workload is measured against it, so
    warm-up matters exactly in proportion to the interval length — the
    quantity behind the paper's "negligible at tens of minutes" claim.
    """

    index: int
    target_nodes: int
    serving_nodes_start: int
    effective_nodes: float
    workload: float
    per_node_workload: float
    violated: bool
    warmup_limited: bool  # violation would vanish with all targets serving


@dataclass
class ReplayResult:
    """Aggregate of a full plan replay."""

    outcomes: list[IntervalOutcome] = field(default_factory=list)
    total_node_seconds: float = 0.0
    scale_out_events: int = 0
    scale_in_events: int = 0
    total_attaches: int = 0
    # Actuation faults observed during the replay (all zero without a
    # fault schedule): node_failures counts abrupt crashes,
    # provision/warmup failures count rejected attaches and wedged
    # warm-ups, failures is their total.
    failures: int = 0
    node_failures: int = 0
    provision_failures: int = 0
    warmup_failures: int = 0

    @property
    def violation_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.violated for o in self.outcomes) / len(self.outcomes)

    @property
    def warmup_limited_violations(self) -> int:
        return sum(o.warmup_limited for o in self.outcomes)


def replay_plan(
    plan: ScalingPlan,
    actual_workload: np.ndarray,
    interval_seconds: float = 600.0,
    storage: SharedStorage | None = None,
    initial_nodes: int | None = None,
    faults: "FaultSchedule | None" = None,
) -> ReplayResult:
    """Execute ``plan`` on a simulated cluster under ``actual_workload``.

    Each interval: the cluster is scaled to the plan's target at the
    interval boundary, the interval's workload arrives, and per-node
    load is measured against the plan's threshold using the
    *time-weighted* number of serving nodes over the interval (warming
    nodes contribute only the portion of the interval after their
    warm-up completes).

    Parameters
    ----------
    initial_nodes:
        Pre-warmed nodes at t=0; defaults to the plan's first target
        (steady-state start).
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule`; its
        cluster-layer events fire during the replay — ``node_crash``
        kills a serving node at that interval's boundary (the control
        plane auto-replaces it), ``provision_fail`` / ``warmup_stall``
        / ``warmup_fail`` degrade the attaches attempted then.
    """
    actual_workload = np.asarray(actual_workload, dtype=np.float64)
    if actual_workload.shape != plan.nodes.shape:
        raise ValueError("workload and plan horizons differ")
    if interval_seconds <= 0:
        raise ValueError("interval_seconds must be positive")

    injector = None
    if faults is not None:
        from ..faults.cluster import ClusterFaultInjector

        injector = ClusterFaultInjector(faults, interval_seconds=interval_seconds)
    storage = storage if storage is not None else SharedStorage()
    simulation = Simulation()
    start_nodes = initial_nodes if initial_nodes is not None else int(plan.nodes[0])
    cluster = DisaggregatedCluster(
        simulation, storage, initial_nodes=start_nodes, fault_injector=injector
    )
    threshold = np.broadcast_to(
        np.asarray(plan.threshold, dtype=np.float64), actual_workload.shape
    )

    metrics = get_registry()
    result = ReplayResult()
    for index, (target, workload) in enumerate(zip(plan.nodes, actual_workload)):
        interval_start = simulation.now
        cluster.scale_to(int(target))
        if injector is not None:
            for _ in range(injector.crashes_at(index)):
                if cluster.serving_nodes() == 0:
                    break  # nothing left to kill this interval
                cluster.fail_node(replace=True)
        serving_start = cluster.serving_nodes()
        simulation.run(until=interval_start + interval_seconds)
        interval_stop = simulation.now
        serving_seconds = sum(
            node.serving_seconds(interval_start, interval_stop)
            for node in cluster.nodes
        )
        effective = max(serving_seconds / interval_seconds, 1e-9)
        per_node = workload / effective
        # required_nodes' rule: n nodes cover w when n >= ceil(w / theta - 1e-12),
        # i.e. n >= w / theta - 1e-12, so a whole-node interval is violated
        # exactly when evaluate_plan calls it under-provisioned.
        needed = workload / threshold[index] - 1e-12
        violated = effective < needed
        # Would the violation clear with every target node serving fully?
        warmup_limited = violated and int(target) >= needed
        metrics.counter("simulator.intervals").inc()
        if violated:
            metrics.counter("simulator.qos_violations").inc()
            if warmup_limited:
                metrics.counter("simulator.warmup_limited_violations").inc()
        result.outcomes.append(
            IntervalOutcome(
                index=index,
                target_nodes=int(target),
                serving_nodes_start=serving_start,
                effective_nodes=float(effective),
                workload=float(workload),
                per_node_workload=float(per_node),
                violated=bool(violated),
                warmup_limited=bool(warmup_limited),
            )
        )

    result.total_node_seconds = cluster.total_node_seconds()
    result.scale_out_events = cluster.scale_out_events
    result.scale_in_events = cluster.scale_in_events
    result.total_attaches = storage.total_attaches
    result.failures = cluster.failures
    result.node_failures = cluster.node_crashes
    result.provision_failures = cluster.provision_failures
    result.warmup_failures = cluster.warmup_failures
    return result
