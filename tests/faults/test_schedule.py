"""Tests for the fault schedule: events, spec grammar, seeded sampling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule
from repro.faults.schedule import (
    ALL_KINDS,
    CLUSTER_KINDS,
    PLANNER_KINDS,
    TELEMETRY_KINDS,
    FaultEvent,
)


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time_index=0, kind="gremlin")

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FaultEvent(time_index=-1, kind="nan")

    @pytest.mark.parametrize("param", [-1.0, -1e-9, float("inf"), float("-inf"), float("nan")])
    def test_rejects_a_negative_or_non_finite_param(self, param):
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultEvent(time_index=0, kind="warmup_stall", param=param)

    @pytest.mark.parametrize("spec", ["warmup_stall@1:-1", "spike@3:1e999", "spike@0..9/3:-0.5"])
    def test_parse_refuses_a_negative_or_overflowing_param(self, spec):
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultSchedule.parse(spec)

    def test_zero_param_is_allowed(self):
        assert FaultEvent(0, "warmup_stall", param=0.0).parameter == 0.0

    def test_parameter_defaults(self):
        assert FaultEvent(0, "spike").parameter == 10.0
        assert FaultEvent(0, "spike", param=3.0).parameter == 3.0
        assert FaultEvent(0, "warmup_stall").parameter == 10.0
        assert FaultEvent(0, "nan").parameter == 1.0

    def test_kind_sets_partition(self):
        assert TELEMETRY_KINDS | PLANNER_KINDS | CLUSTER_KINDS == ALL_KINDS
        assert not TELEMETRY_KINDS & PLANNER_KINDS
        assert not TELEMETRY_KINDS & CLUSTER_KINDS
        assert not PLANNER_KINDS & CLUSTER_KINDS


class TestParse:
    def test_single_event(self):
        schedule = FaultSchedule.parse("nan@12")
        assert len(schedule) == 1
        assert schedule.events[0] == FaultEvent(12, "nan")

    def test_param(self):
        (event,) = FaultSchedule.parse("spike@30:8").events
        assert event.kind == "spike"
        assert event.parameter == 8.0

    def test_range_with_step(self):
        schedule = FaultSchedule.parse("drop@40..60/5")
        assert [e.time_index for e in schedule] == [40, 45, 50, 55, 60]

    def test_range_default_step_is_every_interval(self):
        assert len(FaultSchedule.parse("nan@3..6")) == 4

    def test_multiple_clauses(self):
        schedule = FaultSchedule.parse("node_crash@18,provision_fail@20")
        assert schedule.counts() == {"node_crash": 1, "provision_fail": 1}

    def test_events_sorted_by_time(self):
        schedule = FaultSchedule.parse("nan@30,drop@10,spike@20")
        assert [e.time_index for e in schedule] == [10, 20, 30]

    @pytest.mark.parametrize(
        "spec", ["nan", "nan@", "@12", "nan@12..", "wat@3", "nan@5..3", "nan@1..9/0"]
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            FaultSchedule.parse(spec)

    def test_spec_roundtrip(self):
        schedule = FaultSchedule.parse("nan@12,spike@30:8,node_crash@18")
        assert FaultSchedule.parse(schedule.spec) == schedule

    def test_spec_keeps_every_digit_of_a_parameter(self):
        schedule = FaultSchedule.parse("spike@3:8.123456789")
        assert schedule.events[0].param == 8.123456789
        assert FaultSchedule.parse(schedule.spec) == schedule

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 300),
        st.integers(0, 2**32 - 1),
        st.floats(1e-6, 1e6, allow_nan=False),
        st.floats(1e-6, 1e6, allow_nan=False),
    )
    def test_random_schedule_spec_round_trips(self, length, seed, spike, stall):
        schedule = FaultSchedule.random(
            length, {"spike": 0.2, "warmup_stall": 0.2, "nan": 0.1}, seed=seed,
            params={"spike": spike, "warmup_stall": stall},
        )
        assert FaultSchedule.parse(schedule.spec) == schedule


class TestRandom:
    RATES = {"nan": 0.1, "planner_error": 0.05, "node_crash": 0.02}

    def test_same_seed_is_identical(self):
        a = FaultSchedule.random(500, self.RATES, seed=7)
        b = FaultSchedule.random(500, self.RATES, seed=7)
        assert a == b
        assert len(a) > 0

    def test_different_seeds_differ(self):
        a = FaultSchedule.random(500, self.RATES, seed=7)
        b = FaultSchedule.random(500, self.RATES, seed=8)
        assert a != b

    def test_rate_roughly_respected(self):
        schedule = FaultSchedule.random(5000, {"nan": 0.1}, seed=0)
        assert 350 < schedule.counts()["nan"] < 650

    def test_params_attached(self):
        schedule = FaultSchedule.random(
            200, {"spike": 0.2}, seed=1, params={"spike": 4.0}
        )
        assert all(e.parameter == 4.0 for e in schedule)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultSchedule.random(10, {"nan": 1.5})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSchedule.random(10, {"gremlin": 0.1})


class TestViews:
    def test_layer_views_partition_events(self):
        schedule = FaultSchedule.parse(
            "nan@1,drop@2,planner_error@3,planner_timeout@4,node_crash@5"
        )
        assert len(schedule.telemetry) == 2
        assert len(schedule.planner) == 2
        assert len(schedule.cluster) == 1
        total = (
            len(schedule.telemetry) + len(schedule.planner) + len(schedule.cluster)
        )
        assert total == len(schedule)

    def test_at_lookup(self):
        schedule = FaultSchedule.parse("nan@5,drop@5,spike@9")
        assert {e.kind for e in schedule.at(5)} == {"nan", "drop"}
        assert schedule.at(6) == ()

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert FaultSchedule.parse("nan@0")
