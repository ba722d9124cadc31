"""Replay a scaling plan against an actual workload on the simulator.

This closes the loop the paper's evaluation implies: the plan's node
counts are enacted as scale operations on a cluster of compute nodes
over :class:`SharedStorage` (with real warm-up delays), the actual
utilization trace is applied, and per-interval outcomes are recorded —
including violations that exist *only* because a freshly added node was
still warming.

Every scale operation happens at an interval boundary, and a node's
warm-up ends at ``attached_at + warmup``, a time known when it attaches.
So the replay is a recurrence over intervals that keeps only the live
nodes (attached, not yet released) in attach order; billed seconds are
summed in attach order at the end.

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


@dataclass(eq=False, slots=True)
class _Node:
    """A live node: billed from ``attached_at``, serving from ``active_at``."""

    slot: int  # its place in attach order, where its billed seconds go
    attached_at: float
    active_at: float
    wedged: bool = False  # a warmup_fail: released at active_at, never serves
    warming: bool = True  # active_at not yet reached by an interval's end


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
    warm-up completes).  Scale-out attaches nodes that serve after
    their warm-up; scale-in releases the most recently attached nodes
    first (LIFO — the coldest caches go first).

    Parameters
    ----------
    initial_nodes:
        Pre-warmed nodes at t=0; defaults to the plan's first target
        (steady-state start).
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule`; its
        cluster-layer events at an interval's index act at that
        interval's boundary — ``provision_fail`` rejects the attaches
        attempted then, ``warmup_stall:K`` multiplies their warm-up by
        K, ``warmup_fail`` wedges them (billed until their warm-up would
        have ended, never serving), and ``node_crash`` kills the oldest
        serving node, which the control plane re-attaches at once.
    """
    actual_workload = np.asarray(actual_workload, dtype=np.float64)
    if actual_workload.shape != plan.nodes.shape:
        raise ValueError("workload and plan horizons differ")
    if interval_seconds <= 0:
        raise ValueError("interval_seconds must be positive")
    storage = storage if storage is not None else SharedStorage()
    start_nodes = initial_nodes if initial_nodes is not None else int(plan.nodes[0])
    if start_nodes < 1:
        raise ValueError("cluster needs at least one initial node")
    cluster_faults = faults.cluster if faults is not None else None
    threshold = np.broadcast_to(
        np.asarray(plan.threshold, dtype=np.float64), actual_workload.shape
    )

    metrics = get_registry()
    result = ReplayResult()
    live = [_Node(slot, 0.0, 0.0, warming=False) for slot in range(start_nodes)]
    billed = [0.0] * start_nodes  # per node in attach order; set on release

    def release(node: _Node, now: float) -> None:
        billed[node.slot] = now - node.attached_at
        live.remove(node)

    def attach(now: float, rejected: bool, stall: float, wedged: bool) -> None:
        if rejected:
            # The control plane rejected the attach; the cluster stays
            # short and the next boundary's scale-out retries.
            result.failures += 1
            result.provision_failures += 1
            metrics.counter("simulator.provision_failures").inc()
            return
        warmup = storage.warmup_seconds() * stall
        if warmup < 0:
            raise ValueError(f"warm-up of {warmup}s ends before the attach")
        live.append(_Node(len(billed), now, now + warmup, wedged))
        billed.append(0.0)
        metrics.counter("simulator.node_attaches").inc()
        metrics.histogram("simulator.warmup_seconds").observe(warmup)

    now = 0.0
    for index, (target, workload) in enumerate(zip(plan.nodes.tolist(), actual_workload)):
        start = now
        rejected, stall, wedged, crashes = False, 1.0, False, 0
        for event in cluster_faults.at(index) if cluster_faults is not None else ():
            if event.kind == "provision_fail":
                rejected = True
            elif event.kind == "warmup_stall":
                stall = event.parameter
            elif event.kind == "warmup_fail":
                wedged = True
            else:  # node_crash
                crashes += 1

        if target > len(live):
            for _ in range(target - len(live)):
                attach(start, rejected, stall, wedged)
            result.scale_out_events += 1
            metrics.counter("simulator.scale_events", direction="out").inc()
        elif target < len(live):
            # The stable sort keeps attach order among nodes attached at
            # one instant, so the lowest of them goes first.
            newest = sorted(live, key=lambda node: node.attached_at, reverse=True)
            for node in newest[: len(live) - target]:
                release(node, start)
            result.scale_in_events += 1
            metrics.counter("simulator.scale_events", direction="in").inc()
        # A node serves once start + 1e-9 reaches its active_at, warming or not.
        for _ in range(crashes):
            victim = next((n for n in live if start + 1e-9 >= n.active_at), None)
            if victim is None:
                break  # nothing left to kill this interval
            release(victim, start)
            result.failures += 1
            result.node_failures += 1
            metrics.counter("simulator.node_failures").inc()
            attach(start, rejected, stall, wedged)
        serving_start = sum(1 for n in live if start + 1e-9 >= n.active_at)

        now = start + interval_seconds
        for node in [n for n in live if n.warming and n.active_at <= now]:
            node.warming = False
            if node.wedged:
                release(node, node.active_at)
                result.failures += 1
                result.warmup_failures += 1
                metrics.counter("simulator.warmup_failures").inc()
            else:
                metrics.counter("simulator.warmup_completions").inc()
        # A wedged node serves nothing: it is released at active_at, or
        # active_at is still past ``now``.
        serving_seconds = sum(max(0.0, now - max(start, n.active_at)) for n in live)
        effective = max(serving_seconds / interval_seconds, 1e-9)
        per_node = workload / effective
        # required_nodes' rule: n nodes cover w when n >= ceil(w / theta - 1e-12),
        # i.e. n >= w / theta - 1e-12, so with no warm-up an interval is
        # violated exactly when evaluate_plan calls it under-provisioned
        # (tests/property/test_simulator_properties.py pins it).
        needed = workload / threshold[index] - 1e-12
        violated = effective < needed
        # Would the violation clear with every target node serving fully?
        warmup_limited = violated and target >= needed
        metrics.counter("simulator.intervals").inc()
        if violated:
            metrics.counter("simulator.qos_violations").inc()
            if warmup_limited:
                metrics.counter("simulator.warmup_limited_violations").inc()
        result.outcomes.append(
            IntervalOutcome(
                index=index,
                target_nodes=target,
                serving_nodes_start=serving_start,
                effective_nodes=float(effective),
                workload=float(workload),
                per_node_workload=float(per_node),
                violated=bool(violated),
                warmup_limited=bool(warmup_limited),
            )
        )

    for node in live:
        billed[node.slot] = now - node.attached_at
    result.total_node_seconds = sum(billed)
    result.total_attaches = storage.total_attaches
    return result
