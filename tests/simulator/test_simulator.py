"""Tests for storage and replay, and for the event engine, nodes and
cluster of the event-driven oracle (``tests/simulator/oracle.py``)."""

import numpy as np
import pytest

from repro.core import ScalingPlan
from repro.simulator import SharedStorage, replay_plan
from tests.simulator.oracle import ComputeNode, DisaggregatedCluster, NodeState, Simulation


class TestSimulation:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]
        assert sim.now == 5.0

    def test_same_time_fifo(self):
        sim = Simulation()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_pauses(self):
        sim = Simulation()
        fired = []
        sim.schedule(10.0, lambda: fired.append("late"))
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == ["late"]

    def test_events_can_schedule_events(self):
        sim = Simulation()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_rejects_past_scheduling(self):
        sim = Simulation()
        sim.now = 10.0
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)


class TestSharedStorage:
    def test_warmup_is_seconds_scale(self):
        """Figure 5's claim: warm-up takes a few seconds."""
        storage = SharedStorage()
        assert 1.0 < storage.expected_warmup_seconds() < 30.0

    def test_warmup_scales_with_checkpoint(self):
        small = SharedStorage(checkpoint_gb=1.0, jitter_fraction=0.0)
        large = SharedStorage(checkpoint_gb=16.0, jitter_fraction=0.0)
        assert large.expected_warmup_seconds() > small.expected_warmup_seconds()

    def test_no_jitter_deterministic(self):
        storage = SharedStorage(jitter_fraction=0.0)
        assert storage.warmup_seconds() == storage.expected_warmup_seconds()

    def test_jitter_bounded(self):
        storage = SharedStorage(jitter_fraction=0.2, seed=1)
        base = storage.expected_warmup_seconds()
        for _ in range(100):
            assert 0.8 * base <= storage.warmup_seconds() <= 1.2 * base

    def test_attach_counter(self):
        storage = SharedStorage()
        storage.warmup_seconds()
        storage.warmup_seconds()
        assert storage.total_attaches == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SharedStorage(rebuild_bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            SharedStorage(jitter_fraction=1.0)


class TestComputeNode:
    def test_lifecycle(self):
        node = ComputeNode(node_id=0, attached_at=0.0, warmup_seconds=5.0)
        assert node.state is NodeState.WARMING
        assert not node.is_serving(4.0)
        node.activate(5.0)
        assert node.is_serving(5.0)
        node.release(10.0)
        assert not node.is_serving(11.0)

    def test_early_activation_rejected(self):
        node = ComputeNode(0, 0.0, 5.0)
        with pytest.raises(RuntimeError):
            node.activate(3.0)

    def test_double_release_rejected(self):
        node = ComputeNode(0, 0.0, 0.0)
        node.release(1.0)
        with pytest.raises(RuntimeError):
            node.release(2.0)

    def test_node_seconds_billing(self):
        node = ComputeNode(0, attached_at=2.0, warmup_seconds=1.0)
        node.release(7.0)
        assert node.node_seconds(until=100.0) == pytest.approx(5.0)
        assert node.node_seconds(until=4.0) == pytest.approx(2.0)


class TestCluster:
    def make(self, initial=2, warmup=5.0):
        sim = Simulation()
        storage = SharedStorage(
            checkpoint_gb=warmup, rebuild_bandwidth_gbps=1.0,
            attach_latency_s=0.0, jitter_fraction=0.0,
        )
        return sim, DisaggregatedCluster(sim, storage, initial_nodes=initial)

    def test_initial_nodes_serving(self):
        _, cluster = self.make(initial=3)
        assert cluster.serving_nodes() == 3

    def test_scale_out_serves_after_warmup(self):
        sim, cluster = self.make(initial=1, warmup=5.0)
        cluster.scale_to(3)
        assert cluster.serving_nodes() == 1  # still warming
        assert cluster.attached_nodes() == 3
        sim.run(until=6.0)
        assert cluster.serving_nodes() == 3

    def test_scale_in_immediate(self):
        sim, cluster = self.make(initial=4)
        cluster.scale_to(2)
        assert cluster.serving_nodes() == 2

    def test_scale_in_releases_newest_first(self):
        sim, cluster = self.make(initial=1, warmup=5.0)
        sim.run(until=10.0)
        cluster.scale_to(2)  # node 1 attaches at t=10
        sim.run(until=20.0)
        cluster.scale_to(1)  # should drop the newer node
        alive = [n for n in cluster.nodes if n.state is not NodeState.RELEASED]
        assert len(alive) == 1
        assert alive[0].node_id == 0

    def test_release_during_warmup_never_activates(self):
        sim, cluster = self.make(initial=1, warmup=5.0)
        cluster.scale_to(2)
        cluster.scale_to(1)  # release the warming node immediately
        sim.run()  # warm-up event fires but must not raise
        assert cluster.serving_nodes() == 1

    def test_cannot_scale_to_zero(self):
        _, cluster = self.make()
        with pytest.raises(ValueError):
            cluster.scale_to(0)

    def test_scale_events_counted(self):
        sim, cluster = self.make(initial=1)
        cluster.scale_to(3)
        sim.run(until=100.0)
        cluster.scale_to(2)
        assert cluster.scale_out_events == 1
        assert cluster.scale_in_events == 1

    def test_node_seconds_accumulate(self):
        sim, cluster = self.make(initial=2)
        sim.run(until=100.0)
        assert cluster.total_node_seconds() == pytest.approx(200.0)


class TestReplay:
    def test_perfect_plan_no_violations_long_intervals(self):
        # Not exact multiples of theta: razor-edge demand (w == c * theta)
        # legitimately flickers during the seconds of warm-up.
        w = np.array([110.0, 205.0, 290.0, 195.0])
        from repro.core import solve_closed_form

        plan = solve_closed_form(w, 60.0)
        result = replay_plan(plan, w, interval_seconds=600.0)
        assert result.violation_rate == 0.0
        assert len(result.outcomes) == 4

    def test_underprovisioned_plan_violates(self):
        w = np.full(3, 600.0)
        plan = ScalingPlan(nodes=np.array([1, 1, 1]), threshold=60.0)
        result = replay_plan(plan, w)
        assert result.violation_rate == 1.0

    def test_warmup_limited_violation_detected(self):
        """With sub-warm-up intervals, scale-outs arrive late."""
        w = np.array([60.0, 600.0])
        from repro.core import solve_closed_form

        plan = solve_closed_form(w, 60.0)  # 1 then 10 nodes
        storage = SharedStorage(
            checkpoint_gb=8.0, rebuild_bandwidth_gbps=1.0,
            attach_latency_s=0.0, jitter_fraction=0.0,
        )  # 8s warm-up
        result = replay_plan(plan, w, interval_seconds=1.0, storage=storage)
        second = result.outcomes[1]
        assert second.violated
        assert second.warmup_limited

    def test_warmup_negligible_at_paper_interval(self):
        """The paper's justification: at 10-minute intervals the
        seconds-scale warm-up is negligible — rare hairline transients
        only, every one attributable to warm-up and within 0.5% of the
        threshold."""
        rng = np.random.default_rng(0)
        w = rng.uniform(100, 2000, size=50)
        from repro.core import solve_closed_form

        plan = solve_closed_form(w, 60.0)
        result = replay_plan(plan, w, interval_seconds=600.0)
        assert result.violation_rate <= 0.05
        for outcome in result.outcomes:
            if outcome.violated:
                assert outcome.warmup_limited
                assert outcome.per_node_workload < 60.0 * 1.005

    def test_warmup_violations_explode_at_short_intervals(self):
        """Shrinking the interval toward the warm-up time makes scaling
        overhead dominant — the flip side of the paper's argument."""
        rng = np.random.default_rng(0)
        w = rng.uniform(100, 2000, size=50)
        from repro.core import solve_closed_form

        plan = solve_closed_form(w, 60.0)
        long_run = replay_plan(plan, w, interval_seconds=600.0)
        short_run = replay_plan(plan, w, interval_seconds=10.0)
        assert short_run.violation_rate > long_run.violation_rate

    def test_node_seconds_scale_with_plan(self):
        w = np.full(4, 300.0)
        plan = ScalingPlan(nodes=np.full(4, 5, dtype=int), threshold=60.0)
        result = replay_plan(plan, w, interval_seconds=100.0)
        assert result.total_node_seconds == pytest.approx(5 * 400.0, rel=0.05)

    def test_shape_mismatch_rejected(self):
        plan = ScalingPlan(nodes=np.ones(3, dtype=int), threshold=60.0)
        with pytest.raises(ValueError):
            replay_plan(plan, np.ones(4))

    def test_initial_nodes_override(self):
        w = np.array([600.0, 600.0])
        plan = ScalingPlan(nodes=np.array([10, 10]), threshold=60.0)
        storage = SharedStorage(jitter_fraction=0.0)
        # Starting cold with 1 node: first interval is warm-up limited.
        result = replay_plan(
            plan, w, interval_seconds=1.0, storage=storage, initial_nodes=1
        )
        assert result.outcomes[0].violated
