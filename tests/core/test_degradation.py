"""Tests for runtime input sanitization and graceful degradation."""

import numpy as np
import pytest

from repro.core import AutoscalingRuntime, ScalingPlan
from repro.core.plan import required_nodes


class SteadyPlanner:
    """Always plans a constant allocation (test double)."""

    name = "steady"

    def __init__(self, horizon, nodes=5):
        self.horizon = horizon
        self.nodes = nodes
        self.calls = 0

    def plan(self, context, start_index=0):
        self.calls += 1
        return ScalingPlan(
            nodes=np.full(self.horizon, self.nodes, dtype=np.int64),
            threshold=60.0,
            strategy="steady",
        )


class CrashingPlanner:
    """Raises on selected planning attempts (1-based call numbers)."""

    name = "crashing"

    def __init__(self, horizon, fail_calls=(), nodes=5):
        self.inner = SteadyPlanner(horizon, nodes)
        self.fail_calls = set(fail_calls)
        self.calls = 0

    def plan(self, context, start_index=0):
        self.calls += 1
        if self.calls in self.fail_calls or "all" in self.fail_calls:
            raise RuntimeError(f"boom on call {self.calls}")
        return self.inner.plan(context, start_index=start_index)


def make_runtime(planner, context=4, horizon=4, **kwargs):
    return AutoscalingRuntime(
        planner=planner,
        context_length=context,
        horizon=horizon,
        threshold=60.0,
        **kwargs,
    )


class TestInvalidObservations:
    """Satellite 1: ``NaN < 0`` is False — a sign check alone lets
    non-finite values poison the context silently."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_default_policy_raises_on_nonfinite(self, bad):
        runtime = make_runtime(SteadyPlanner(4))
        with pytest.raises(ValueError, match="finite non-negative"):
            runtime.observe(bad)

    def test_negative_still_rejected(self):
        runtime = make_runtime(SteadyPlanner(4))
        with pytest.raises(ValueError):
            runtime.observe(-1.0)

    def test_impute_substitutes_last_valid_value(self):
        runtime = make_runtime(SteadyPlanner(4), invalid_policy="impute")
        runtime.observe(100.0)
        runtime.observe(float("nan"))
        assert list(runtime.state.history) == [100.0, 100.0]
        assert runtime.invalid_observations == 1

    def test_impute_before_any_history_uses_zero(self):
        runtime = make_runtime(SteadyPlanner(4), invalid_policy="impute")
        runtime.observe(float("nan"))
        assert list(runtime.state.history) == [0.0]

    def test_reject_advances_clock_without_feeding_context(self):
        runtime = make_runtime(SteadyPlanner(4), invalid_policy="reject")
        runtime.observe(100.0)
        runtime.observe(float("inf"))
        assert list(runtime.state.history) == [100.0]
        assert runtime.tick == 2  # the interval still happened
        assert runtime.invalid_observations == 1

    def test_context_never_contains_nonfinite(self):
        runtime = make_runtime(SteadyPlanner(4), invalid_policy="impute")
        for value in [100.0, float("nan"), float("inf"), -5.0, 200.0]:
            runtime.observe(value)
        history = np.asarray(runtime.state.history)
        assert np.isfinite(history).all()
        assert (history >= 0).all()

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            make_runtime(SteadyPlanner(4), invalid_policy="shrug")


class TestPlannerDegradation:
    def test_planner_crash_degrades_instead_of_raising(self):
        planner = CrashingPlanner(4, fail_calls={"all"})
        runtime = make_runtime(planner)
        series = np.full(12, 300.0)
        allocations = runtime.run(series)  # must not raise
        assert len(allocations) == len(series)
        degraded = [d for d in runtime.decisions if d.source == "degraded"]
        assert degraded
        # The fallback sees 300 -> ceil(300/60) = 5 nodes.
        assert degraded[0].plan.nodes.tolist() == [5] * runtime.replan_every

    def test_bounded_retry_then_degrade(self):
        planner = CrashingPlanner(4, fail_calls={"all"})
        runtime = make_runtime(planner, max_plan_retries=2)
        runtime.run(np.full(8, 300.0))
        # First decision: 1 attempt + 2 retries, all failing.
        assert runtime.planner_errors >= 3
        assert planner.calls >= 3

    def test_transient_crash_recovers_at_next_boundary(self):
        planner = CrashingPlanner(4, fail_calls={1, 2})  # first decision only
        runtime = make_runtime(planner)
        runtime.run(np.full(16, 300.0))
        sources = [d.source for d in runtime.decisions if d.source != "reactive-fallback"]
        assert sources[0] == "degraded"
        assert "predictive" in sources[1:]

    def test_raise_mode_propagates(self):
        planner = CrashingPlanner(4, fail_calls={"all"})
        runtime = make_runtime(planner, on_planner_error="raise")
        with pytest.raises(RuntimeError, match="boom"):
            runtime.run(np.full(8, 300.0))

    def test_degraded_plan_metadata_and_counters(self):
        planner = CrashingPlanner(4, fail_calls={"all"})
        runtime = make_runtime(planner)
        runtime.run(np.full(12, 300.0))
        degraded = [d for d in runtime.decisions if d.source == "degraded"]
        for decision in degraded:
            assert decision.plan.metadata["degraded"] is True
            assert decision.plan.metadata["error"] == "RuntimeError"
        # Every interval served off a degraded plan is counted.
        assert runtime.degraded_intervals == sum(
            len(d.plan.nodes) for d in degraded
        )

    def test_degraded_provenance_names_the_error(self):
        planner = CrashingPlanner(4, fail_calls={"all"})
        runtime = make_runtime(planner, record_provenance=True)
        runtime.run(np.full(8, 300.0))
        records = [r for r in runtime.provenance if r["source"] == "degraded"]
        assert records
        assert all(r["error"] == "RuntimeError" for r in records)

    def test_degradation_telemetry_counters(self):
        from repro.obs import MetricsRegistry, using_registry

        registry = MetricsRegistry()
        with using_registry(registry):
            planner = CrashingPlanner(4, fail_calls={"all"})
            runtime = make_runtime(planner, invalid_policy="impute")
            series = np.full(12, 300.0)
            series[5] = float("nan")
            runtime.run(series)
        counters = registry.snapshot()["counters"]
        assert counters["runtime.planner_errors{error=RuntimeError}"] >= 2
        assert counters["runtime.planner_retries"] >= 1
        assert counters["runtime.degraded_intervals"] == runtime.degraded_intervals
        assert counters["runtime.invalid_observations{reason=nan}"] == 1
        assert counters["runtime.decisions{source=degraded}"] == len(
            [d for d in runtime.decisions if d.source == "degraded"]
        )

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            make_runtime(SteadyPlanner(4), on_planner_error="explode")
        with pytest.raises(ValueError):
            make_runtime(SteadyPlanner(4), max_plan_retries=-1)


class TestDegradedMonitorFeed:
    def test_degraded_intervals_reach_window_stats(self):
        from repro.obs import ModelHealthMonitor

        planner = CrashingPlanner(4, fail_calls={"all"})
        monitor = ModelHealthMonitor(window=4)
        runtime = make_runtime(planner, monitor=monitor)
        runtime.run(np.full(12, 300.0))
        assert monitor.windows
        window = monitor.windows[0]
        assert window.degraded_intervals == 4
        assert window.degraded_rate == 1.0
