"""Tests for node-failure injection in the event-driven oracle's cluster
(``tests/simulator/oracle.py``)."""

import numpy as np
import pytest

from repro.simulator import SharedStorage
from tests.simulator.oracle import DisaggregatedCluster, NodeState, Simulation


def make_cluster(initial=3, warmup=5.0):
    sim = Simulation()
    storage = SharedStorage(
        checkpoint_gb=warmup, rebuild_bandwidth_gbps=1.0,
        attach_latency_s=0.0, jitter_fraction=0.0,
    )
    return sim, DisaggregatedCluster(sim, storage, initial_nodes=initial)


class TestFailNode:
    def test_failure_drops_serving_capacity(self):
        sim, cluster = make_cluster(initial=3)
        cluster.fail_node(replace=True)
        assert cluster.serving_nodes() == 2  # replacement still warming
        assert cluster.attached_nodes() == 3
        sim.run(until=6.0)
        assert cluster.serving_nodes() == 3  # replacement warmed

    def test_failure_without_replacement(self):
        sim, cluster = make_cluster(initial=3)
        cluster.fail_node(replace=False)
        sim.run(until=10.0)
        assert cluster.serving_nodes() == 2
        assert cluster.attached_nodes() == 2

    def test_oldest_node_killed_by_default(self):
        sim, cluster = make_cluster(initial=2)
        victim = cluster.fail_node(replace=False)
        assert victim.node_id == 0

    def test_specific_node(self):
        sim, cluster = make_cluster(initial=3)
        victim = cluster.fail_node(node_id=1, replace=False)
        assert victim.node_id == 1
        assert victim.state is NodeState.RELEASED

    def test_unknown_node_rejected(self):
        sim, cluster = make_cluster(initial=2)
        with pytest.raises(ValueError):
            cluster.fail_node(node_id=99)

    def test_failure_counter(self):
        sim, cluster = make_cluster(initial=3)
        cluster.fail_node()
        cluster.fail_node()
        assert cluster.failures == 2

    def test_failing_last_node_then_replacement_serves(self):
        sim, cluster = make_cluster(initial=1)
        cluster.fail_node(replace=True)
        assert cluster.serving_nodes() == 0
        sim.run(until=6.0)
        assert cluster.serving_nodes() == 1

    def test_no_serving_node_rejected(self):
        sim, cluster = make_cluster(initial=1)
        cluster.fail_node(replace=False)
        with pytest.raises(RuntimeError):
            cluster.fail_node()

    def test_capacity_gap_during_replacement_warmup(self):
        """During the warm-up window the cluster truly runs short —
        the transient the paper's seconds-scale warm-up claim bounds."""
        sim, cluster = make_cluster(initial=4, warmup=8.0)
        sim.run(until=100.0)
        cluster.fail_node(replace=True)
        start = sim.now
        sim.run(until=start + 60.0)
        serving_seconds = sum(
            node.serving_seconds(start, sim.now) for node in cluster.nodes
        )
        # 3 nodes for 8 s, then 4 nodes for 52 s.
        assert serving_seconds == pytest.approx(3 * 8.0 + 4 * 52.0, rel=0.01)
