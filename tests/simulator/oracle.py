"""The event-driven cluster replay, kept as the oracle of ``replay_plan``.

``repro.simulator.replay_plan`` is a per-interval recurrence over live
nodes.  It replaced the discrete-event simulation below, which is kept
verbatim - the event engine, the node lifecycle, the cluster and the
clock-based fault injector - so that
``tests/simulator/test_replay_oracle.py`` can assert the recurrence
bit-identical to it, and the tests of the cluster's own behaviour
(``fail_node``, LIFO release, the injector's clock conversion) still
run.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from repro.core.plan import ScalingPlan
from repro.faults.schedule import FaultSchedule
from repro.obs import get_registry
from repro.simulator.replay import IntervalOutcome, ReplayResult
from repro.simulator.storage import SharedStorage

__all__ = [
    "ClusterFaultInjector",
    "ComputeNode",
    "DisaggregatedCluster",
    "Event",
    "EventQueue",
    "NodeState",
    "Simulation",
    "event_replay_plan",
]


# -- the event engine (was repro/simulator/engine.py) ------------------


@dataclass(order=True)
class Event:
    """A scheduled callback; ordering is (time, sequence)."""

    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")


class EventQueue:
    """Priority queue of events with stable same-time ordering."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        event = Event(time=time, sequence=next(self._counter), action=action, label=label)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class Simulation:
    """Event loop with a monotonic clock.

    Time never moves backwards; scheduling an event in the past raises,
    which catches double-firing bugs early instead of silently
    reordering history.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue = EventQueue()
        self.processed_events = 0

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s in the past")
        return self._queue.push(self.now + delay, action, label)

    def schedule_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now ({self.now})")
        return self._queue.push(time, action, label)

    def run(self, until: float | None = None) -> None:
        """Process events in order, optionally stopping at time ``until``.

        Stopping advances the clock to ``until`` even if the queue still
        holds later events, so interleaved ``run(until=...)`` calls
        behave like a paused simulation.  Processed events are counted
        into the ambient metrics registry, grouped by the prefix of
        their :attr:`Event.label` (the part before the first ``-``), so
        a telemetry stream shows e.g. how many ``warmup`` events fired.
        """
        metrics = get_registry()
        while self._queue:
            event = self._queue.pop()
            if until is not None and event.time > until:
                # Put it back; we are pausing, not discarding.
                heapq.heappush(self._queue._heap, event)
                break
            self.now = event.time
            event.action()
            self.processed_events += 1
            prefix = event.label.split("-", 1)[0] if event.label else "unlabeled"
            metrics.counter("simulator.events", label=prefix).inc()
        if until is not None and self.now < until:
            self.now = until


# -- the node lifecycle (was repro/simulator/node.py) ---------------


class NodeState(Enum):
    """Lifecycle of a compute node attached to shared storage."""

    WARMING = "warming"  # attached, rebuilding in-memory components
    ACTIVE = "active"  # serving queries
    RELEASED = "released"  # detached and returned to the pool


@dataclass
class ComputeNode:
    """One compute node.

    Tracks the timestamps of its lifecycle transitions so the cluster
    can account node-seconds and warm-up overlap exactly.
    """

    node_id: int
    attached_at: float
    warmup_seconds: float
    state: NodeState = NodeState.WARMING
    released_at: float | None = field(default=None)

    @property
    def active_at(self) -> float:
        """Instant this node finished warming and began serving."""
        return self.attached_at + self.warmup_seconds

    def activate(self, now: float) -> None:
        if self.state is not NodeState.WARMING:
            raise RuntimeError(f"node {self.node_id} cannot activate from {self.state}")
        if now + 1e-9 < self.active_at:
            raise RuntimeError(
                f"node {self.node_id} warm-up not complete at t={now} "
                f"(ready at {self.active_at})"
            )
        self.state = NodeState.ACTIVE

    def release(self, now: float) -> None:
        if self.state is NodeState.RELEASED:
            raise RuntimeError(f"node {self.node_id} already released")
        self.state = NodeState.RELEASED
        self.released_at = now

    def is_serving(self, now: float) -> bool:
        """Whether the node can take queries at instant ``now``."""
        if self.state is NodeState.RELEASED:
            return False
        return now + 1e-9 >= self.active_at

    def node_seconds(self, until: float) -> float:
        """Billed seconds (attach to release/``until``) — warm-up bills too."""
        end = self.released_at if self.released_at is not None else until
        return max(0.0, min(end, until) - self.attached_at)

    def serving_seconds(self, start: float, stop: float) -> float:
        """Seconds within [start, stop) during which this node served.

        The serving window is [active_at, released_at); a node released
        while warming never serves.
        """
        serve_start = self.active_at
        serve_stop = self.released_at if self.released_at is not None else float("inf")
        if serve_stop <= serve_start:
            return 0.0
        return max(0.0, min(stop, serve_stop) - max(start, serve_start))


# -- the cluster (was repro/simulator/cluster.py) -------------------


class DisaggregatedCluster:
    """A pool of compute nodes over shared storage.

    Parameters
    ----------
    simulation:
        The event engine driving time.
    storage:
        Shared storage pool (supplies warm-up durations).
    initial_nodes:
        Nodes serving at t=0 (pre-warmed).
    fault_injector:
        Optional actuation-fault source (see
        :class:`~repro.faults.cluster.ClusterFaultInjector`); ``None``
        means every attach succeeds and every warm-up completes.
    """

    def __init__(
        self,
        simulation: Simulation,
        storage: SharedStorage,
        initial_nodes: int = 1,
        fault_injector: "ClusterFaultInjector | None" = None,
    ) -> None:
        if initial_nodes < 1:
            raise ValueError("cluster needs at least one initial node")
        self.simulation = simulation
        self.storage = storage
        self.fault_injector = fault_injector
        self._nodes: list[ComputeNode] = []
        self._next_id = 0
        self.scale_out_events = 0
        self.scale_in_events = 0
        #: Total faults of every kind (crashes + provisioning + warm-up).
        self.failures = 0
        self.node_crashes = 0
        self.provision_failures = 0
        self.warmup_failures = 0
        for _ in range(initial_nodes):
            node = ComputeNode(
                node_id=self._next_id, attached_at=simulation.now, warmup_seconds=0.0
            )
            node.state = NodeState.ACTIVE
            self._nodes.append(node)
            self._next_id += 1

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[ComputeNode]:
        return list(self._nodes)

    def serving_nodes(self) -> int:
        """Nodes able to take queries right now."""
        now = self.simulation.now
        return sum(1 for node in self._nodes if node.is_serving(now))

    def attached_nodes(self) -> int:
        """Nodes attached (serving or warming) — what gets billed."""
        return sum(1 for node in self._nodes if node.state is not NodeState.RELEASED)

    # ------------------------------------------------------------------
    def scale_to(self, target: int) -> None:
        """Scale out/in so that ``target`` nodes are (or will be) attached.

        Scale-out attaches new nodes which serve only after warm-up;
        scale-in releases the most recently attached nodes first
        (LIFO — the coldest caches go first).
        """
        if target < 1:
            raise ValueError("target must be >= 1")
        current = self.attached_nodes()
        if target > current:
            for _ in range(target - current):
                self._attach_node()
            self.scale_out_events += 1
            get_registry().counter("simulator.scale_events", direction="out").inc()
        elif target < current:
            self._release_nodes(current - target)
            self.scale_in_events += 1
            get_registry().counter("simulator.scale_events", direction="in").inc()

    def _attach_node(self) -> "ComputeNode | None":
        now = self.simulation.now
        injector = self.fault_injector
        metrics = get_registry()
        if injector is not None and injector.provision_fails(now):
            # The control plane rejected the attach (capacity shortage,
            # API failure).  The cluster stays short; the next scale_to
            # sees the shortfall and retries.
            self.failures += 1
            self.provision_failures += 1
            metrics.counter("simulator.provision_failures").inc()
            return None
        warmup = self.storage.warmup_seconds()
        fails_warmup = False
        if injector is not None:
            warmup *= injector.warmup_multiplier(now)
            fails_warmup = injector.warmup_fails(now)
        node = ComputeNode(
            node_id=self._next_id,
            attached_at=now,
            warmup_seconds=warmup,
        )
        self._next_id += 1
        self._nodes.append(node)

        metrics.counter("simulator.node_attaches").inc()
        metrics.histogram("simulator.warmup_seconds").observe(warmup)

        def finish_warmup(n: ComputeNode = node, fails: bool = fails_warmup) -> None:
            # A node released mid-warm-up never activates.
            if n.state is not NodeState.WARMING:
                return
            if fails:
                # Wedged rebuild: the node never serves, but it was
                # attached (and billed) until the failure is noticed.
                n.release(self.simulation.now)
                self.failures += 1
                self.warmup_failures += 1
                get_registry().counter("simulator.warmup_failures").inc()
                return
            n.activate(self.simulation.now)
            get_registry().counter("simulator.warmup_completions").inc()

        self.simulation.schedule(warmup, finish_warmup, label=f"warmup-{node.node_id}")
        return node

    def _release_nodes(self, count: int) -> None:
        alive = [n for n in self._nodes if n.state is not NodeState.RELEASED]
        if count >= len(alive):
            raise ValueError("cannot release every node")
        for node in sorted(alive, key=lambda n: n.attached_at, reverse=True)[:count]:
            node.release(self.simulation.now)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_node(self, node_id: int | None = None, replace: bool = True) -> ComputeNode:
        """Abruptly lose a node (hardware failure / preemption).

        The failed node stops serving immediately.  With ``replace=True``
        (the realistic default — the control plane notices and re-attaches)
        a replacement starts warming right away, so the cluster serves
        one node short until the replacement's warm-up completes.

        Parameters
        ----------
        node_id:
            Specific node to kill; default kills the oldest serving node
            (the one with the warmest cache — worst case).

        Returns
        -------
        The failed node.
        """
        now = self.simulation.now
        serving = [n for n in self._nodes if n.is_serving(now)]
        if not serving:
            raise RuntimeError("no serving node to fail")
        if node_id is None:
            victim = min(serving, key=lambda n: n.attached_at)
        else:
            matches = [n for n in serving if n.node_id == node_id]
            if not matches:
                raise ValueError(f"node {node_id} is not serving")
            victim = matches[0]
        victim.release(now)
        self.failures += 1
        self.node_crashes += 1
        get_registry().counter("simulator.node_failures").inc()
        if replace:
            self._attach_node()
        return victim

    # ------------------------------------------------------------------
    def total_node_seconds(self) -> float:
        """Billed node-seconds up to the current simulation time."""
        now = self.simulation.now
        return sum(node.node_seconds(now) for node in self._nodes)


# -- the clock-based fault injector (was repro/faults/cluster.py) ---


class ClusterFaultInjector:
    """Schedule-driven actuation faults, looked up by simulation time.

    Parameters
    ----------
    schedule:
        Fault schedule (only its cluster-layer events matter).
    interval_seconds:
        Length of one workload interval; converts the simulation clock
        into the schedule's interval indices.
    """

    def __init__(
        self, schedule: FaultSchedule, interval_seconds: float = 600.0
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.schedule = schedule.cluster
        self.interval_seconds = float(interval_seconds)
        self._provision_fail: set[int] = set()
        self._warmup_stall: dict[int, float] = {}
        self._warmup_fail: set[int] = set()
        self._node_crash: dict[int, int] = {}
        for event in self.schedule:
            if event.kind == "provision_fail":
                self._provision_fail.add(event.time_index)
            elif event.kind == "warmup_stall":
                self._warmup_stall[event.time_index] = event.parameter
            elif event.kind == "warmup_fail":
                self._warmup_fail.add(event.time_index)
            elif event.kind == "node_crash":
                self._node_crash[event.time_index] = (
                    self._node_crash.get(event.time_index, 0) + 1
                )

    def interval_of(self, now: float) -> int:
        """Interval index containing simulation instant ``now``."""
        # Attaches happen exactly at interval boundaries; the epsilon
        # keeps float drift from assigning them to the previous interval.
        return int(now / self.interval_seconds + 1e-9)

    # -- hooks consulted by DisaggregatedCluster -----------------------
    def provision_fails(self, now: float) -> bool:
        return self.interval_of(now) in self._provision_fail

    def warmup_multiplier(self, now: float) -> float:
        return self._warmup_stall.get(self.interval_of(now), 1.0)

    def warmup_fails(self, now: float) -> bool:
        return self.interval_of(now) in self._warmup_fail

    # -- hook consulted by replay_plan ---------------------------------
    def crashes_at(self, interval_index: int) -> int:
        """How many node crashes are scheduled for one interval."""
        return self._node_crash.get(interval_index, 0)


# -- the event replay (was repro/simulator/replay.py::replay_plan) --


def event_replay_plan(
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
