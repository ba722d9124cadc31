"""Integration tests: full pipelines across packages.

These use small models and short traces; the benchmark harness runs the
paper-scale versions.
"""

import numpy as np
import pytest

from repro import (
    FixedQuantilePolicy,
    MLPForecaster,
    PaddedPointForecaster,
    PointForecastScaler,
    ReactiveAvgScaler,
    RobustPredictiveAutoscaler,
    SeasonalNaiveForecaster,
    TFTForecaster,
    TrainingConfig,
    UncertaintyAwarePolicy,
    alibaba_like_trace,
    evaluate_strategy,
)
from repro.core import decision_points, solve_with_ramp_limits
from repro.forecast.qb5000 import LinearRegressionForecaster
from repro.simulator import SharedStorage, replay_plan

CTX = HOR = 36
THETA = 60.0


@pytest.fixture(scope="module")
def trace_splits():
    trace = alibaba_like_trace(num_steps=144 * 8, seed=11)
    train, test = trace.split(test_fraction=0.25)
    return train, test


@pytest.fixture(scope="module")
def tft(trace_splits):
    train, _ = trace_splits
    config = TrainingConfig(epochs=6, batch_size=64, window_stride=4, patience=0, seed=1)
    return TFTForecaster(CTX, HOR, d_model=16, num_heads=2, config=config).fit(
        train.values
    )


class TestForecastToPlanToReplay:
    def test_full_pipeline(self, trace_splits, tft):
        train, test = trace_splits
        scaler = RobustPredictiveAutoscaler(tft, THETA, FixedQuantilePolicy(0.9))
        plan = scaler.plan(test.values[:CTX], start_index=len(train.values))
        result = replay_plan(plan, test.values[CTX : CTX + HOR])
        # Warm-up at 10-minute intervals cannot dominate: any violations
        # must come from forecast error, which the robust plan bounds.
        assert result.violation_rate < 0.5
        assert result.total_node_seconds > 0

    def test_rolling_evaluation_quantile_ordering(self, trace_splits, tft):
        train, test = trace_splits
        under = {}
        for tau in (0.5, 0.9):
            scaler = RobustPredictiveAutoscaler(tft, THETA, FixedQuantilePolicy(tau))
            ev = evaluate_strategy(
                scaler, test.values, CTX, HOR, THETA,
                series_start_index=len(train.values),
            )
            under[tau] = ev.report.under_provisioning_rate
        assert under[0.9] <= under[0.5]

    def test_adaptive_policy_runs_end_to_end(self, trace_splits, tft):
        train, test = trace_splits
        scaler = RobustPredictiveAutoscaler(
            tft, THETA, UncertaintyAwarePolicy(0.6, 0.9, uncertainty_threshold=100.0)
        )
        ev = evaluate_strategy(
            scaler, test.values, CTX, HOR, THETA,
            series_start_index=len(train.values),
        )
        # Both levels should appear somewhere across the evaluation.
        plan = scaler.plan(test.values[:CTX], start_index=len(train.values))
        assert set(np.unique(plan.quantile_levels)) <= {0.6, 0.9}
        assert 0.0 <= ev.report.under_provisioning_rate <= 1.0


class TestPaddingFeedbackLoop:
    def test_padding_reduces_underprovisioning(self, trace_splits):
        """The CloudScale enhancement must help a biased forecaster."""
        train, test = trace_splits

        class LowBall(LinearRegressionForecaster):
            """Deliberately under-forecasts by 10%."""

            def predict_point(self, context, start_index=0):
                return super().predict_point(context, start_index) * 0.9

        plain = LowBall(CTX, HOR).fit(train.values)
        # Wraps a fitted model; learns its errors from each next context.
        padded = PaddedPointForecaster(plain, window=HOR * 3, percentile=0.95)

        plain_scaler = PointForecastScaler(plain, THETA, name="plain")
        padded_scaler = PointForecastScaler(padded, THETA, name="padded")

        plain_ev = evaluate_strategy(plain_scaler, test.values, CTX, HOR, THETA)
        padded_ev = evaluate_strategy(padded_scaler, test.values, CTX, HOR, THETA)
        assert (
            padded_ev.report.under_provisioning_rate
            < plain_ev.report.under_provisioning_rate
        )


class TestThrashingControl:
    def test_ramped_plan_replays_with_fewer_scale_events(self, trace_splits, tft):
        train, test = trace_splits
        free = RobustPredictiveAutoscaler(tft, THETA, FixedQuantilePolicy(0.9))
        ramped = RobustPredictiveAutoscaler(
            tft, THETA, FixedQuantilePolicy(0.9), max_scale_out=1, max_scale_in=1
        )
        context = test.values[:CTX]
        start = len(train.values)
        free_plan = free.plan(context, start_index=start)
        ramped_plan = ramped.plan(context, start_index=start)
        free_changes = int(np.abs(np.diff(free_plan.nodes)).sum())
        ramped_steps = np.abs(np.diff(ramped_plan.nodes))
        assert ramped_steps.max() <= 1
        # Ramping never under-allocates relative to demand bound
        assert np.all(ramped_plan.nodes >= free_plan.nodes)


class TestSerializationAcrossPackages:
    def test_save_load_forecaster_preserves_plans(self, trace_splits, tft, tmp_path):
        train, test = trace_splits
        tft.save(tmp_path / "tft.npz")

        # Same architecture, never trained: weights and scaler come from the file.
        clone = TFTForecaster(CTX, HOR, d_model=16, num_heads=2).load(tmp_path / "tft.npz")

        context = test.values[:CTX]
        start = len(train.values)
        original = tft.predict(context, start_index=start)
        restored = clone.predict(context, start_index=start)
        np.testing.assert_allclose(original.values, restored.values, rtol=1e-10)


class TestReactiveVersusOracleSpan:
    def test_all_strategies_comparable(self, trace_splits):
        """Reactive and naive-predictive strategies score over the same steps."""
        train, test = trace_splits
        naive = SeasonalNaiveForecaster(horizon=HOR, season=144).fit(train.values)
        predictive = RobustPredictiveAutoscaler(
            naive, THETA, FixedQuantilePolicy(0.9),
            quantile_levels=(0.1, 0.5, 0.9),
        )
        reactive = ReactiveAvgScaler(threshold=THETA)
        ev_p = evaluate_strategy(
            predictive, test.values, 144, HOR, THETA,
            series_start_index=len(train.values),
        )
        ev_r = evaluate_strategy(reactive, test.values, 144, HOR, THETA)
        assert len(ev_p.actual) == len(ev_r.actual)
