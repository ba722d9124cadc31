"""Tests for reactive scalers, the point-forecast scaler, the manager,
the end-to-end autoscaler, and the rolling evaluation harness."""

import numpy as np
import pytest

from repro.core import (
    AutoscalingRuntime,
    FixedQuantilePolicy,
    PointForecastScaler,
    ReactiveAvgScaler,
    ReactiveMaxScaler,
    RobustAutoScalingManager,
    RobustPredictiveAutoscaler,
    UncertaintyAwarePolicy,
    decision_points,
    evaluate_strategy,
    required_nodes,
)
from repro.forecast import QuantileForecast, SeasonalNaiveForecaster


def step_workload():
    """Flat 100, then a jump to 600 — exposes reactive lag."""
    return np.concatenate([np.full(20, 100.0), np.full(20, 600.0)])


def step_by_step(scaler, workload):
    """Reactive allocations, one step at a time: the runtime replans the
    scaler's one-step plan every tick, and until a full window exists its
    fallback is the same scaler over the shorter history."""
    runtime = AutoscalingRuntime(
        scaler, scaler.window, horizon=1, threshold=scaler.threshold, fallback=scaler
    )
    return runtime.run(workload)


class TestReactiveScalers:
    def test_max_uses_window_maximum(self):
        scaler = ReactiveMaxScaler(window=3, threshold=60.0)
        w = np.array([60.0, 120.0, 60.0, 60.0, 60.0])
        nodes = step_by_step(scaler, w)
        # step 3 window = [120, 60, 60] -> max 120 -> 2 nodes
        assert nodes[3] == 2

    def test_avg_decay_weights_newest_most(self):
        scaler = ReactiveAvgScaler(window=2, half_life=1.0)
        stat = scaler.window_statistic(np.array([100.0, 200.0]))
        # weights: old 0.5, new 1.0 -> (50+200)/1.5
        assert stat == pytest.approx((0.5 * 100 + 1.0 * 200) / 1.5)

    def test_lag_causes_under_provisioning_on_jump(self):
        w = step_workload()
        for scaler in (ReactiveMaxScaler(threshold=60.0), ReactiveAvgScaler(threshold=60.0)):
            nodes = step_by_step(scaler, w)
            needed = required_nodes(w, 60.0)
            jump = 20
            assert nodes[jump] < needed[jump], scaler.name

    def test_max_more_conservative_than_avg(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(50, 1000, size=300)
        max_nodes = step_by_step(ReactiveMaxScaler(threshold=60.0), w)
        avg_nodes = step_by_step(ReactiveAvgScaler(threshold=60.0), w)
        assert max_nodes.sum() > avg_nodes.sum()

    def test_first_step_single_node(self):
        nodes = step_by_step(ReactiveMaxScaler(threshold=60.0), np.full(5, 600.0))
        assert nodes[0] == 1
        assert (nodes[1:] == 10).all()

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ReactiveMaxScaler(window=0)
        with pytest.raises(ValueError):
            ReactiveAvgScaler(half_life=0.0)


class _ConstantPoint:
    """Point forecaster stub returning a fixed series."""

    _fitted = True

    def __init__(self, value, horizon):
        self.value, self.horizon = value, horizon

    def fit(self, series):
        return self

    def predict_point(self, context, start_index=0):
        return np.full(self.horizon, self.value)

    def _require_fitted(self):
        pass


class TestPointForecastScaler:
    def test_allocates_to_forecast(self):
        scaler = PointForecastScaler(_ConstantPoint(120.0, 4), threshold=60.0)
        plan = scaler.plan(np.ones(8))
        np.testing.assert_array_equal(plan.nodes, [2, 2, 2, 2])

    def test_negative_forecast_clamped(self):
        scaler = PointForecastScaler(_ConstantPoint(-50.0, 3), threshold=60.0)
        plan = scaler.plan(np.ones(8))
        np.testing.assert_array_equal(plan.nodes, [1, 1, 1])

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            PointForecastScaler(_ConstantPoint(1.0, 1), threshold=0.0)

    def test_metadata_records_forecast(self):
        scaler = PointForecastScaler(_ConstantPoint(120.0, 2), threshold=60.0)
        np.testing.assert_array_equal(
            scaler.plan(np.ones(4)).metadata["point_forecast"], [120.0, 120.0]
        )


def fan(levels, *rows):
    return QuantileForecast(levels=np.array(levels), values=np.array(rows, dtype=float))


class TestManager:
    def test_fixed_policy_plan(self):
        manager = RobustAutoScalingManager(threshold=60.0, policy=FixedQuantilePolicy(0.9))
        fc = fan([0.5, 0.9], [100.0, 200.0], [130.0, 250.0])
        plan = manager.plan(fc)
        np.testing.assert_array_equal(plan.nodes, [3, 5])
        np.testing.assert_array_equal(plan.quantile_levels, [0.9, 0.9])

    def test_default_policy_is_fixed_09(self):
        manager = RobustAutoScalingManager(threshold=60.0)
        assert manager.policy.name == "fixed-0.9"

    def test_negative_bound_clamped(self):
        manager = RobustAutoScalingManager(threshold=60.0, policy=FixedQuantilePolicy(0.5))
        fc = fan([0.5], [-10.0, 20.0])
        plan = manager.plan(fc)
        np.testing.assert_array_equal(plan.nodes, [1, 1])

    def test_ramp_limits_respected(self):
        manager = RobustAutoScalingManager(
            threshold=60.0,
            policy=FixedQuantilePolicy(0.5),
            max_scale_out=1,
            max_scale_in=1,
        )
        fc = fan([0.5], [60.0, 600.0, 60.0])
        plan = manager.plan(fc)
        assert np.abs(np.diff(plan.nodes)).max() <= 1

    def test_one_sided_scale_out_limit(self):
        # Only the out-rate is capped; scale-in may drop arbitrarily fast.
        manager = RobustAutoScalingManager(
            threshold=60.0, policy=FixedQuantilePolicy(0.5), max_scale_out=1
        )
        fc = fan([0.5], [60.0, 600.0, 60.0])
        plan = manager.plan(fc)
        diffs = np.diff(plan.nodes)
        assert diffs.max() <= 1
        assert np.all(plan.nodes >= required_nodes(fc.at(0.5), 60.0))

    def test_one_sided_scale_in_limit(self):
        # Only the in-rate is capped; the jump up happens in one step.
        manager = RobustAutoScalingManager(
            threshold=60.0, policy=FixedQuantilePolicy(0.5), max_scale_in=1
        )
        fc = fan([0.5], [60.0, 600.0, 60.0, 60.0])
        plan = manager.plan(fc)
        diffs = np.diff(plan.nodes)
        assert diffs.min() >= -1
        assert plan.nodes[1] == 10  # unconstrained scale-out
        assert np.all(plan.nodes >= required_nodes(fc.at(0.5), 60.0))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            RobustAutoScalingManager(threshold=-1.0)

    def test_higher_quantile_never_fewer_nodes(self):
        fc = fan([0.5, 0.8, 0.95], [100.0, 200.0], [140.0, 260.0], [180.0, 320.0])
        totals = []
        for tau in (0.5, 0.8, 0.95):
            manager = RobustAutoScalingManager(60.0, FixedQuantilePolicy(tau))
            totals.append(manager.plan(fc).total_nodes)
        assert totals == sorted(totals)


class TestAutoscalerEndToEnd:
    SEASON = 24

    def make_series(self):
        rng = np.random.default_rng(5)
        t = np.arange(self.SEASON * 30)
        return 600.0 + 300.0 * np.sin(2 * np.pi * t / self.SEASON) + rng.normal(
            0, 20.0, size=len(t)
        )

    def make_autoscaler(self, policy):
        forecaster = SeasonalNaiveForecaster(horizon=self.SEASON, season=self.SEASON)
        return RobustPredictiveAutoscaler(
            forecaster,
            threshold=60.0,
            policy=policy,
            quantile_levels=(0.1, 0.3, 0.5, 0.7, 0.9),
        )

    def test_fit_plan_cycle(self):
        series = self.make_series()
        scaler = self.make_autoscaler(FixedQuantilePolicy(0.9)).fit(series[:-100])
        plan = scaler.plan(series[-100 - self.SEASON : -100])
        assert plan.horizon == self.SEASON
        assert plan.strategy == "fixed-0.9"

    def test_higher_quantile_reduces_underprovisioning(self):
        series = self.make_series()
        train, test = series[: -self.SEASON * 8], series[-self.SEASON * 8 :]
        rates = {}
        for tau in (0.5, 0.9):
            scaler = self.make_autoscaler(FixedQuantilePolicy(tau)).fit(train)
            ev = evaluate_strategy(
                scaler, test, self.SEASON, self.SEASON, 60.0,
                series_start_index=len(train),
            )
            rates[tau] = ev.report.under_provisioning_rate
        assert rates[0.9] < rates[0.5]

    def test_adaptive_between_fixed_extremes(self):
        series = self.make_series()
        train, test = series[: -self.SEASON * 8], series[-self.SEASON * 8 :]
        results = {}
        for name, policy in [
            ("low", FixedQuantilePolicy(0.5)),
            ("high", FixedQuantilePolicy(0.9)),
        ]:
            scaler = self.make_autoscaler(policy).fit(train)
            ev = evaluate_strategy(
                scaler, test, self.SEASON, self.SEASON, 60.0,
                series_start_index=len(train),
            )
            results[name] = ev.report
        scaler = self.make_autoscaler(
            UncertaintyAwarePolicy(0.5, 0.9, uncertainty_threshold=1.0)
        ).fit(train)
        adaptive = evaluate_strategy(
            scaler, test, self.SEASON, self.SEASON, 60.0, series_start_index=len(train)
        ).report
        assert (
            results["high"].over_provisioning_rate + 1e-9
            >= adaptive.over_provisioning_rate
            >= results["low"].over_provisioning_rate - 1e-9
        )

    def test_name_describes_pipeline(self):
        scaler = self.make_autoscaler(FixedQuantilePolicy(0.8))
        assert scaler.name == "SeasonalNaiveForecaster/fixed-0.8"


class TestEvaluationHarness:
    def test_decision_points_spacing(self):
        points = decision_points(num_steps=100, context_length=20, horizon=10)
        assert points[0] == 20
        assert all(b - a == 10 for a, b in zip(points, points[1:]))
        assert points[-1] + 10 <= 100

    def test_decision_points_custom_stride(self):
        points = decision_points(100, 20, 10, stride=5)
        assert points[1] - points[0] == 5

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError):
            decision_points(25, 20, 10)

    def test_reactive_and_predictive_same_span(self):
        """Both kinds of strategy must be scored on identical steps."""
        rng = np.random.default_rng(8)
        values = rng.uniform(100, 1000, size=200)

        class PerfectPlanner:
            name = "oracle"

            def plan(self, context, start_index=0):
                from repro.core import solve_closed_form

                actual = values[start_index + len(context):][:10]
                return solve_closed_form(actual, 60.0, strategy="oracle")

        predictive = evaluate_strategy(PerfectPlanner(), values, 20, 10, 60.0)
        reactive = evaluate_strategy(ReactiveMaxScaler(threshold=60.0), values, 20, 10, 60.0)
        assert len(predictive.actual) == len(reactive.actual)
        np.testing.assert_array_equal(predictive.actual, reactive.actual)
        # the oracle is perfect
        assert predictive.report.under_provisioning_rate == 0.0
        assert predictive.report.over_provisioning_rate == 0.0

    def test_on_window_callback_fires_per_decision(self):
        """The runtime plans once per decision point; nothing calls back."""
        calls = []

        class OnePlanner:
            name = "ones"

            def plan(self, context, start_index=0):
                from repro.core import ScalingPlan

                calls.append(start_index + len(context))
                return ScalingPlan(nodes=np.ones(10, dtype=int), threshold=60.0)

        evaluate_strategy(OnePlanner(), np.ones(100), 20, 10, 60.0)
        assert calls == decision_points(100, 20, 10)

    def test_replan_every_scores_each_step_once(self):
        values = np.random.default_rng(9).uniform(10, 300, size=100)
        planner = RobustPredictiveAutoscaler(
            SeasonalNaiveForecaster(horizon=10, season=10).fit(values),
            60.0, FixedQuantilePolicy(0.9), quantile_levels=(0.5, 0.9),
        )
        ev = evaluate_strategy(planner, values, 20, 10, 60.0, replan_every=5)
        # decisions at 20, 25, ..., 90; scored on [20, 90 + 10) once each
        np.testing.assert_array_equal(ev.actual, values[20:100])
        assert len(ev.nodes) == 80

    def test_monitor_sees_every_scored_step(self):
        from repro.obs import ModelHealthMonitor

        values = np.random.default_rng(9).uniform(10, 300, size=100)
        planner = RobustPredictiveAutoscaler(
            SeasonalNaiveForecaster(horizon=10, season=10).fit(values),
            60.0, FixedQuantilePolicy(0.9), quantile_levels=(0.5, 0.9),
        )
        monitor = ModelHealthMonitor(window=10)
        evaluate_strategy(planner, values, 20, 10, 60.0, monitor=monitor)
        assert len(monitor.windows) == 8  # 80 scored steps

    def test_a_raising_planner_fails_the_evaluation(self):
        class BrokenPlanner:
            name = "broken"

            def plan(self, context, start_index=0):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            evaluate_strategy(BrokenPlanner(), np.ones(100), 20, 10, 60.0)
