"""``replay_plan`` is bit-identical to the event-driven oracle.

``replay_plan`` is a per-interval recurrence over the live nodes; the
discrete-event simulation it replaced is kept in
``tests/simulator/oracle.py``.  The property replays generated plans,
workloads, warm-ups, interval lengths and fault schedules through both
and asserts ``==`` (and equal ``repr``, so ``-0.0`` and ``0.0`` differ)
on every ``ReplayResult`` field and every ``IntervalOutcome``, on every
``simulator.*`` counter, and on the ``simulator.warmup_seconds``
histogram observation by observation.  ``simulator.events`` counted the
event engine's own heap pops and went with it.  Floats match bitwise:
both advance the clock as ``now = start + interval_seconds`` and sum
serving and billed seconds in attach order.

``test_the_generator_reaches`` searches the same generator for an
example whose oracle run shows each edge case the recurrence must get
right, so a narrowed generator cannot pass the property vacuously.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from repro.core import ScalingPlan
from repro.faults.schedule import CLUSTER_KINDS, FaultEvent, FaultSchedule
from repro.obs import MetricsRegistry, using_registry
from repro.obs.sinks import InMemorySink
from repro.simulator import SharedStorage, replay_plan
from tests.simulator import oracle
from tests.simulator.oracle import NodeState, event_replay_plan

INTERVALS = st.one_of(st.sampled_from([0.1, 1.0, 10.0, 600.0]), st.floats(0.1, 600.0))
# A telemetry kind rides along: the replay must read only the cluster layer.
FAULT_KINDS = sorted(CLUSTER_KINDS) + ["nan"]


@st.composite
def replays(draw):
    """``(plan, workload, interval, storage kwargs, initial_nodes, faults)``."""
    interval = draw(INTERVALS)
    # Warm-ups shorter and longer than the interval, and ones that end
    # within 1e-9 s after a later boundary (the serving check's tolerance).
    warmup = draw(
        st.one_of(
            st.floats(0.0, 3.0 * interval),
            st.tuples(
                st.integers(0, 2), st.sampled_from([0.0, 2e-10, 5e-10, 3e-9])
            ).map(lambda k_nudge: k_nudge[0] * interval + k_nudge[1]),
        )
    )
    storage = dict(
        checkpoint_gb=0.0,
        attach_latency_s=warmup,
        jitter_fraction=draw(st.sampled_from([0.0, 0.0, 0.1, 0.5])),
        seed=draw(st.integers(0, 3)),
    )
    length = draw(st.integers(1, 14))
    theta = draw(st.sampled_from([60.0, 45.5]))
    nodes = draw(st.lists(st.integers(1, 6), min_size=length, max_size=length))
    workload = draw(
        st.lists(
            st.one_of(st.floats(0.0, 400.0), st.integers(0, 6).map(lambda k: k * theta)),
            min_size=length,
            max_size=length,
        )
    )
    # Half the faults land on one interval, so several act at one boundary.
    hot = draw(st.integers(0, length - 1))
    faults = draw(
        st.none()
        | st.lists(
            st.builds(
                FaultEvent,
                time_index=st.just(hot) | st.integers(0, length - 1),
                kind=st.sampled_from(FAULT_KINDS),
                param=st.sampled_from([None, 0.5, 3.0, 1000.0]),
            ),
            max_size=8,
        ).map(FaultSchedule)
    )
    initial = draw(st.none() | st.integers(1, 6))
    plan = ScalingPlan(nodes=np.array(nodes), threshold=theta)
    return plan, np.array(workload), interval, storage, initial, faults


def hand_built(nodes, interval, warmup, faults, jitter=0.0, initial=None, theta=60.0):
    """A hand-built example in the generator's shape, loaded at 50 per node."""
    storage = dict(checkpoint_gb=0.0, attach_latency_s=warmup, jitter_fraction=jitter, seed=0)
    plan = ScalingPlan(nodes=np.array(nodes), threshold=theta)
    return plan, 50.0 * plan.nodes, interval, storage, initial, FaultSchedule.parse(faults)


def run(replay, case):
    """One replay in a fresh registry: result, counters, histograms, observations."""
    plan, workload, interval, storage, initial, faults = case
    sink = InMemorySink()
    registry = MetricsRegistry(sinks=[sink])
    with using_registry(registry):
        result = replay(
            plan,
            workload,
            interval_seconds=interval,
            storage=SharedStorage(**storage),
            initial_nodes=initial,
            faults=faults,
        )
    snapshot = registry.snapshot()
    counters = {
        key: value
        for key, value in snapshot["counters"].items()
        if key.startswith("simulator.") and not key.startswith("simulator.events")
    }
    observed = [(r["name"], r["value"]) for r in sink.records if r["kind"] == "histogram"]
    return result, counters, snapshot["histograms"], observed


# Each edge case of test_the_generator_reaches, pinned on every run.
@example(hand_built([1, 2, 2, 2], 1.0, 0.5, "warmup_stall@1:5"))  # active past two boundaries
@example(hand_built([1, 2, 2, 2, 2], 1.0, 2.5, "warmup_fail@1"))  # released mid-interval 3
@example(hand_built([1, 4, 2, 2], 1.0, 0.5, ""))  # three attach at t=1, two go
@example(hand_built([1, 1, 1], 10.0, 15.0, "node_crash@0,node_crash@0,node_crash@1"))
@example(hand_built([1, 3, 3, 3], 10.0, 4.0, "provision_fail@1", jitter=0.5))
@example(hand_built([1, 2, 2, 2], 1.0, 1.0 + 5e-10, ""))  # serving 5e-10 s before active_at
@example(hand_built([1, 3, 3], 10.0, 5.0, "warmup_stall@1:3,warmup_stall@1:1000"))
@settings(max_examples=600, deadline=None)
@given(replays())
def test_replay_plan_is_bit_identical_to_the_event_oracle(case):
    new, old = run(replay_plan, case), run(event_replay_plan, case)
    assert new[0] == old[0]
    assert repr(new[0]) == repr(old[0])
    assert new[1:] == old[1:]


def oracle_cases(case) -> set[str]:
    """The edge cases one example drives the oracle through."""
    plan, workload, interval, storage, initial, faults = case
    seen: set[str] = set()
    clusters = []

    class Recorded(oracle.DisaggregatedCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

        def serving_nodes(self):
            now = self.simulation.now
            if any(
                n.state is not NodeState.RELEASED and now < n.active_at <= now + 1e-9
                for n in self._nodes
            ):
                seen.add("serving within 1e-9 s before its warm-up ends")
            return super().serving_nodes()

        def _release_nodes(self, count):
            alive = [n for n in self._nodes if n.state is not NodeState.RELEASED]
            newest = sorted(alive, key=lambda n: n.attached_at, reverse=True)
            if newest[count - 1].attached_at == newest[count].attached_at:
                seen.add("a LIFO release splits nodes attached at one instant")
            super()._release_nodes(count)

    with mock.patch.object(oracle, "DisaggregatedCluster", Recorded):
        run(event_replay_plan, case)
    (cluster,) = clusters
    injector = cluster.fault_injector
    for node in cluster.nodes:
        if node.warmup_seconds > interval:
            seen.add("a warm-up longer than the interval")
        late = node.active_at > node.attached_at + interval
        if injector is None or not late:
            continue
        if injector.warmup_multiplier(node.attached_at) != 1.0:
            seen.add("a warmup_stall ends a warm-up past a later boundary")
        if injector.warmup_fails(node.attached_at) and node.released_at == node.active_at:
            seen.add("a warmup_fail node is released in a later interval")
    if injector is not None:
        for node in cluster.nodes:
            stalls = {e.parameter for e in faults.at(injector.interval_of(node.attached_at))
                      if e.kind == "warmup_stall"}
            if len(stalls) > 1 and node.warmup_seconds > 0:
                seen.add("the last of two warmup_stalls at one boundary sets the warm-up")
        scheduled = sum(injector.crashes_at(i) for i in range(len(plan.nodes)))
        if cluster.node_crashes < scheduled:
            seen.add("a node_crash finds no serving node")
    if storage["jitter_fraction"] > 0 and cluster.storage.total_attaches:
        seen.add("jittered warm-ups")
        if cluster.provision_failures:
            seen.add("a provision_fail beside jittered warm-ups")
    return seen


CASES = (
    "a warm-up longer than the interval",
    "a warmup_stall ends a warm-up past a later boundary",
    "a warmup_fail node is released in a later interval",
    "the last of two warmup_stalls at one boundary sets the warm-up",
    "a LIFO release splits nodes attached at one instant",
    "a node_crash finds no serving node",
    "a provision_fail beside jittered warm-ups",
    "jittered warm-ups",
    "serving within 1e-9 s before its warm-up ends",
)


@pytest.mark.parametrize("case", CASES)
def test_the_generator_reaches(case):
    find(
        replays(),
        lambda example: case in oracle_cases(example),
        settings=settings(
            max_examples=5000, database=None, derandomize=True, phases=[Phase.generate]
        ),
    )
