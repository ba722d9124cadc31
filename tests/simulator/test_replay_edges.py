"""Edge-case tests for replay_plan: cold starts, zero load, warm-up limits."""

import numpy as np
import pytest

from repro.core import ScalingPlan
from repro.faults import FaultSchedule
from repro.simulator import SharedStorage, replay_plan


def make_plan(nodes, threshold=60.0):
    return ScalingPlan(
        nodes=np.asarray(nodes, dtype=np.int64),
        threshold=threshold,
        strategy="test",
    )


def storage():
    return SharedStorage(jitter_fraction=0.0)


class TestZeroWorkload:
    def test_zero_workload_never_violates(self):
        result = replay_plan(
            make_plan([2, 2, 2]), np.zeros(3), storage=storage()
        )
        assert result.violation_rate == 0.0
        assert all(o.per_node_workload == 0.0 for o in result.outcomes)

    def test_zero_workload_with_cold_start(self):
        # Scaling out into zero demand: warming nodes cannot cause a
        # violation when there is nothing to serve.
        result = replay_plan(
            make_plan([5, 5]), np.zeros(2), storage=storage(), initial_nodes=1
        )
        assert result.violation_rate == 0.0
        assert result.scale_out_events == 1

    def test_zero_then_load_still_scored(self):
        result = replay_plan(
            make_plan([1, 1]), np.array([0.0, 600.0]), storage=storage()
        )
        assert [o.violated for o in result.outcomes] == [False, True]


class TestColdStart:
    # Short intervals make warm-up (~4.1 s with the default storage and
    # no jitter) a visible fraction of the interval.
    INTERVAL = 10.0

    def test_initial_nodes_below_first_target_warm_up(self):
        result = replay_plan(
            make_plan([4, 4]),
            np.array([0.0, 0.0]),
            interval_seconds=self.INTERVAL,
            storage=storage(),
            initial_nodes=1,
        )
        first, second = result.outcomes
        assert first.serving_nodes_start == 1
        assert 1.0 < first.effective_nodes < 4.0
        assert second.effective_nodes == pytest.approx(4.0)

    def test_warmup_limited_violation_classified(self):
        # 200 load over ~2.76 effective nodes violates theta=60, but
        # 200/4 targets = 50 would not: the violation is warm-up limited.
        result = replay_plan(
            make_plan([4, 4]),
            np.array([200.0, 200.0]),
            interval_seconds=self.INTERVAL,
            storage=storage(),
            initial_nodes=1,
        )
        first, second = result.outcomes
        assert first.violated and first.warmup_limited
        assert not second.violated
        assert result.warmup_limited_violations == 1

    def test_genuine_underprovision_not_blamed_on_warmup(self):
        # 300/4 = 75 > theta even with every target serving: this
        # violation is the plan's fault, not the warm-up's.
        result = replay_plan(
            make_plan([4]),
            np.array([300.0]),
            interval_seconds=self.INTERVAL,
            storage=storage(),
            initial_nodes=1,
        )
        (outcome,) = result.outcomes
        assert outcome.violated and not outcome.warmup_limited

    def test_warmup_limited_boundary_is_inclusive(self):
        # workload / target == theta exactly: still warm-up limited.
        result = replay_plan(
            make_plan([4]),
            np.array([240.0]),
            interval_seconds=self.INTERVAL,
            storage=storage(),
            initial_nodes=1,
        )
        (outcome,) = result.outcomes
        assert outcome.violated and outcome.warmup_limited


class TestValidationAndFaults:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            replay_plan(make_plan([1, 1]), np.zeros(3))

    def test_failure_counters_zero_without_schedule(self):
        result = replay_plan(make_plan([2, 2]), np.zeros(2), storage=storage())
        assert result.failures == 0
        assert result.node_failures == 0

    def test_node_crash_recorded_and_survived(self):
        result = replay_plan(
            make_plan([3, 3, 3]),
            np.full(3, 90.0),
            storage=storage(),
            faults=FaultSchedule.parse("node_crash@1"),
        )
        assert result.node_failures == 1
        assert result.failures == 1
        # The crashed node's replacement warms up within the interval,
        # so the 600 s interval barely notices.
        assert result.outcomes[1].effective_nodes > 2.9

    def test_negative_warmup_stall_rejected(self):
        # The spec grammar accepts a signed parameter; a warm-up that ends
        # before its attach is refused, as the event engine refused to
        # schedule into the past.
        with pytest.raises(ValueError):
            replay_plan(
                make_plan([1, 2]),
                np.zeros(2),
                storage=storage(),
                faults=FaultSchedule.parse("warmup_stall@1:-1"),
            )
