"""Tests for the event-driven step API and runtime checkpoint surface."""

import numpy as np
import pytest

from repro.core import AutoscalingRuntime, ScalingPlan, StepResult
from repro.core.plan import required_nodes
from repro.obs import AlertEngine, ModelHealthMonitor, default_rules
from tests.helpers import decision_states


class QuantilePlanner:
    """Deterministic planner carrying forecast metadata (test double)."""

    name = "quantile-double"

    def __init__(self, horizon, threshold):
        self.horizon = horizon
        self.threshold = threshold
        self.calls = []

    def plan(self, context, start_index=0):
        self.calls.append(start_index)
        base = float(np.mean(context))
        levels = np.array([0.1, 0.5, 0.9])
        values = np.vstack([
            np.full(self.horizon, base * f) for f in (0.8, 1.0, 1.2)
        ])
        return ScalingPlan(
            nodes=required_nodes(values[-1], self.threshold),
            threshold=self.threshold,
            strategy=self.name,
            quantile_levels=(0.9,),
            metadata={"forecast_levels": levels, "forecast_values": values},
        )


def make_runtime(context=6, horizon=4, start_tick=0, monitor=None, replan=None):
    return AutoscalingRuntime(
        planner=QuantilePlanner(horizon, 60.0),
        context_length=context,
        horizon=horizon,
        threshold=60.0,
        replan_every=replan,
        start_tick=start_tick,
        monitor=monitor,
    )


SERIES = np.abs(np.random.default_rng(7).normal(300, 80, size=40))


class TestStepEquivalence:
    def test_step_matches_target_nodes_observe_pair(self):
        classic = make_runtime()
        stepped = make_runtime()
        for value in SERIES:
            expected = classic.target_nodes()
            classic.observe(value)
            assert stepped.step(value).target_nodes == expected
        assert decision_states(classic.decisions) == decision_states(stepped.decisions)

    def test_run_is_a_thin_loop_over_step(self):
        loop = make_runtime()
        manual = make_runtime()
        allocations = loop.run(SERIES)
        stepped = np.array([manual.step(v).target_nodes for v in SERIES])
        np.testing.assert_array_equal(allocations, stepped)


class TestStepResult:
    def test_result_is_stamped_with_the_interval_tick(self):
        runtime = make_runtime(start_tick=100)
        results = [runtime.step(v) for v in SERIES[:10]]
        assert [r.tick for r in results] == list(range(100, 110))
        assert all(isinstance(r, StepResult) for r in results)

    def test_planned_flag_and_decision_surface_new_plans(self):
        runtime = make_runtime(context=6, horizon=4)
        results = [runtime.step(v) for v in SERIES[:20]]
        planned = [r for r in results if r.planned]
        # First plan once the context fills (tick 6), then every 4 ticks.
        assert [r.tick for r in planned] == [6, 10, 14, 18]
        for r in planned:
            assert r.decision is not None
            assert r.decision.tick == r.tick
            assert r.source == "predictive"
        unplanned = [r for r in results if not r.planned]
        assert all(r.decision is None for r in unplanned)

    def test_cold_start_steps_report_fallback_source(self):
        runtime = make_runtime(context=6)
        results = [runtime.step(v) for v in SERIES[:6]]
        assert {r.source for r in results} == {"reactive-fallback"}
        assert all(r.observed is not None for r in results)


class TestPhaseMethods:
    def test_actuate_does_not_plan(self):
        runtime = make_runtime(context=4)
        for value in SERIES[:6]:
            runtime.step(value)
        calls_before = len(runtime.planner.calls)
        runtime.actuate()
        assert len(runtime.planner.calls) == calls_before

    def test_request_replan_forces_a_plan_at_next_step(self):
        runtime = make_runtime(context=4, horizon=8)
        for value in SERIES[:6]:
            runtime.step(value)
        # Plan committed at tick 4 covers through tick 11; without the
        # request the next step would not plan.
        runtime.request_replan()
        result = runtime.step(SERIES[6])
        assert result.planned

    def test_maybe_plan_force_before_context_full_returns_none(self):
        runtime = make_runtime(context=8)
        runtime.step(SERIES[0])
        assert runtime.maybe_plan(force=True) is None


class TestTickConsolidation:
    def test_monitor_and_provenance_share_the_step_tick(self):
        monitor = ModelHealthMonitor(
            window=8, alerts=AlertEngine(default_rules(nominal_level=0.9))
        )
        runtime = make_runtime(context=6, start_tick=500, monitor=monitor)
        runtime.record_provenance = True
        for value in SERIES:
            runtime.step(value)
        # Monitored intervals start once the first plan exists (tick 506)
        # and use the same absolute tick the decision log uses.
        indices = [w.start_index for w in monitor.windows]
        assert indices and all(i >= 506 for i in indices)
        decision_ticks = {d.tick for d in runtime.decisions}
        assert {p["time_index"] for p in runtime.provenance} == decision_ticks


class TestStateDictRoundTrip:
    def test_mid_run_round_trip_is_bit_identical(self):
        full = make_runtime(context=6, horizon=4, start_tick=50)
        half = make_runtime(context=6, horizon=4, start_tick=50)
        for value in SERIES[:17]:
            full.step(value)
            half.step(value)
        state = half.state_dict()
        restored = make_runtime(context=6, horizon=4, start_tick=50)
        restored.load_state_dict(state)
        tail_full = [full.step(v).target_nodes for v in SERIES[17:]]
        tail_restored = [restored.step(v).target_nodes for v in SERIES[17:]]
        assert tail_full == tail_restored
        # The audit lists are per process: the restored loop holds the
        # decisions it committed itself, and they are the uninterrupted
        # loop's newest ones; the lifetime count carries over.
        assert restored.decisions
        assert decision_states(restored.decisions) == decision_states(
            full.decisions[-len(restored.decisions):]
        )
        assert restored.state.decisions_committed == full.state.decisions_committed
        assert full.state.decisions_committed == len(full.decisions)
        assert restored.state_dict() == full.state_dict()

    def test_state_dict_is_json_safe(self):
        import json

        runtime = make_runtime()
        for value in SERIES[:10]:
            runtime.step(value)
        encoded = json.dumps(runtime.state_dict())
        restored = make_runtime()
        restored.load_state_dict(json.loads(encoded))
        plan = restored.state.current_plan
        assert isinstance(plan.metadata["forecast_values"], np.ndarray)
        assert plan.metadata["forecast_values"].shape == (3, 4)


class TestConstructorCompat:
    def test_unknown_kwarg_raises_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            AutoscalingRuntime(
                planner=QuantilePlanner(4, 60.0),
                context_length=6,
                horizon=4,
                threshold=60.0,
                bogus=1,
            )
