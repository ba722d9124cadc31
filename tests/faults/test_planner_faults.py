"""Tests for planner-layer fault injection (FlakyPlanner)."""

import numpy as np
import pytest

from repro.core import ScalingPlan
from repro.faults import FaultSchedule, FlakyPlanner
from repro.faults.planner import InjectedPlannerError, PlannerTimeoutError


class StubPlanner:
    name = "stub"

    def __init__(self):
        self.calls = []
        self.extra = "delegated"

    def plan(self, context, start_index=0):
        self.calls.append(start_index)
        return ScalingPlan(
            nodes=np.ones(4, dtype=np.int64), threshold=60.0, strategy="stub"
        )


def make(spec, time_offset=0):
    inner = StubPlanner()
    return inner, FlakyPlanner(inner, FaultSchedule.parse(spec), time_offset=time_offset)


CONTEXT = np.full(6, 100.0)  # decision index = start_index + 6


class TestFaultFiring:
    def test_fault_at_decision_interval_raises(self):
        _, flaky = make("planner_error@6")
        with pytest.raises(InjectedPlannerError):
            flaky.plan(CONTEXT, start_index=0)
        assert flaky.faults_injected == 1

    def test_timeout_raises_distinct_type(self):
        _, flaky = make("planner_timeout@6")
        with pytest.raises(PlannerTimeoutError):
            flaky.plan(CONTEXT, start_index=0)

    def test_clean_decision_passes_through(self):
        inner, flaky = make("planner_error@99")
        plan = flaky.plan(CONTEXT, start_index=0)
        assert plan.strategy == "stub"
        assert inner.calls == [0]
        assert flaky.faults_injected == 0

    def test_fault_latches_until_next_decision(self):
        # The fault is scheduled at t=8 but decisions only happen at
        # t=6, 10, ...: it must fire on the next planning attempt.
        _, flaky = make("planner_error@8")
        flaky.plan(CONTEXT, start_index=0)  # decision t=6: clean
        with pytest.raises(InjectedPlannerError):
            flaky.plan(CONTEXT, start_index=4)  # decision t=10

    def test_retry_of_same_decision_hits_same_fault(self):
        _, flaky = make("planner_error@6")
        for _ in range(3):  # deterministic crash: every retry fails
            with pytest.raises(InjectedPlannerError):
                flaky.plan(CONTEXT, start_index=0)
        assert flaky.faults_injected == 3

    def test_next_decision_recovers(self):
        inner, flaky = make("planner_error@6")
        with pytest.raises(InjectedPlannerError):
            flaky.plan(CONTEXT, start_index=0)
        plan = flaky.plan(CONTEXT, start_index=4)  # decision t=10
        assert plan.strategy == "stub"
        assert inner.calls == [4]

    def test_one_fault_consumed_per_decision(self):
        # Two pending faults: each poisons one decision, in time order.
        _, flaky = make("planner_error@1,planner_timeout@2")
        with pytest.raises(InjectedPlannerError):
            flaky.plan(CONTEXT, start_index=0)
        with pytest.raises(PlannerTimeoutError):
            flaky.plan(CONTEXT, start_index=4)
        plan = flaky.plan(CONTEXT, start_index=8)
        assert plan.strategy == "stub"

    def test_time_offset_shifts_schedule_frame(self):
        # Absolute decision index 106, schedule written test-relative.
        _, flaky = make("planner_error@6", time_offset=100)
        with pytest.raises(InjectedPlannerError):
            flaky.plan(CONTEXT, start_index=100)


class TestDelegation:
    def test_name_and_attributes_delegate(self):
        inner, flaky = make("planner_error@6")
        assert flaky.name == "stub"
        assert flaky.extra == "delegated"

    def test_non_planner_kinds_ignored(self):
        _, flaky = make("nan@6,node_crash@6")
        plan = flaky.plan(CONTEXT, start_index=0)
        assert plan.strategy == "stub"
