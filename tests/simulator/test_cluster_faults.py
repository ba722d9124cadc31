"""Tests for cluster-layer fault injection (actuation failures) on the
event-driven oracle (``tests/simulator/oracle.py``); ``replay_plan``'s
handling of the same faults is pinned against it in
``tests/simulator/test_replay_oracle.py``."""

import pytest

from repro.faults import FaultSchedule
from repro.simulator import SharedStorage
from tests.simulator.oracle import ClusterFaultInjector, DisaggregatedCluster, Simulation

INTERVAL = 600.0


def make_cluster(spec, initial_nodes=2):
    injector = ClusterFaultInjector(
        FaultSchedule.parse(spec), interval_seconds=INTERVAL
    )
    simulation = Simulation()
    cluster = DisaggregatedCluster(
        simulation,
        SharedStorage(jitter_fraction=0.0),
        initial_nodes=initial_nodes,
        fault_injector=injector,
    )
    return simulation, cluster


class TestInjectorHooks:
    def test_interval_of_converts_clock(self):
        injector = ClusterFaultInjector(FaultSchedule(), interval_seconds=600.0)
        assert injector.interval_of(0.0) == 0
        assert injector.interval_of(599.9) == 0
        assert injector.interval_of(600.0) == 1
        # Float drift just below a boundary still lands on it.
        assert injector.interval_of(1200.0 - 1e-7) == 2

    def test_hooks_reflect_schedule(self):
        injector = ClusterFaultInjector(
            FaultSchedule.parse(
                "provision_fail@1,warmup_stall@2:5,warmup_fail@3,node_crash@4"
            ),
            interval_seconds=600.0,
        )
        assert injector.provision_fails(600.0)
        assert not injector.provision_fails(0.0)
        assert injector.warmup_multiplier(1200.0) == 5.0
        assert injector.warmup_multiplier(0.0) == 1.0
        assert injector.warmup_fails(1800.0)
        assert injector.crashes_at(4) == 1
        assert injector.crashes_at(5) == 0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ClusterFaultInjector(FaultSchedule(), interval_seconds=0.0)


class TestProvisionFail:
    def test_attach_rejected_during_faulted_interval(self):
        simulation, cluster = make_cluster("provision_fail@0")
        cluster.scale_to(4)
        assert cluster.attached_nodes() == 2  # both attaches rejected
        assert cluster.provision_failures == 2
        assert cluster.failures == 2

    def test_retry_succeeds_next_interval(self):
        simulation, cluster = make_cluster("provision_fail@0")
        cluster.scale_to(3)
        simulation.run(until=INTERVAL)
        cluster.scale_to(3)  # shortfall noticed, attach retried
        assert cluster.attached_nodes() == 3


class TestWarmupStall:
    def test_stall_multiplies_warmup_duration(self):
        simulation, cluster = make_cluster("warmup_stall@0:10")
        cluster.scale_to(3)
        nominal = cluster.storage.expected_warmup_seconds()
        simulation.run(until=2 * nominal)
        assert cluster.serving_nodes() == 2  # still warming at 2x nominal
        simulation.run(until=11 * nominal)
        assert cluster.serving_nodes() == 3  # done after 10x

    def test_stall_only_affects_its_interval(self):
        simulation, cluster = make_cluster("warmup_stall@0:10")
        simulation.run(until=INTERVAL)
        cluster.scale_to(3)  # attach in interval 1: nominal warm-up
        simulation.run(until=INTERVAL + 2 * cluster.storage.expected_warmup_seconds())
        assert cluster.serving_nodes() == 3


class TestWarmupFail:
    def test_wedged_node_never_serves(self):
        simulation, cluster = make_cluster("warmup_fail@0")
        cluster.scale_to(3)
        simulation.run(until=INTERVAL)
        assert cluster.serving_nodes() == 2
        assert cluster.attached_nodes() == 2  # the wedged node was released
        assert cluster.warmup_failures == 1
        assert cluster.failures == 1

    def test_replacement_can_be_attached_later(self):
        simulation, cluster = make_cluster("warmup_fail@0")
        cluster.scale_to(3)
        simulation.run(until=INTERVAL)
        cluster.scale_to(3)
        simulation.run(until=2 * INTERVAL)
        assert cluster.serving_nodes() == 3


class TestAggregateCounter:
    def test_failures_sums_all_kinds(self):
        simulation, cluster = make_cluster(
            "provision_fail@0,warmup_fail@1", initial_nodes=3
        )
        cluster.scale_to(4)  # rejected (provision_fail@0)
        simulation.run(until=INTERVAL)
        cluster.scale_to(4)  # attaches, then wedges (warmup_fail@1)
        simulation.run(until=2 * INTERVAL)
        cluster.fail_node()  # abrupt crash on top
        assert cluster.provision_failures == 1
        assert cluster.warmup_failures == 1
        assert cluster.node_crashes == 1
        assert cluster.failures == 3

    def test_no_injector_means_no_failures(self):
        simulation = Simulation()
        cluster = DisaggregatedCluster(
            simulation, SharedStorage(jitter_fraction=0.0), initial_nodes=2
        )
        cluster.scale_to(5)
        simulation.run(until=INTERVAL)
        assert cluster.failures == 0
        assert cluster.serving_nodes() == 5
