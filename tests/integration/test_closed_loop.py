"""Integration: AutoscalingRuntime driving the simulated cluster."""

import numpy as np
import pytest

from repro import (
    AutoscalingRuntime,
    FixedQuantilePolicy,
    RobustPredictiveAutoscaler,
    ScalingPlan,
    SeasonalNaiveForecaster,
)
from repro.core.plan import required_nodes
from repro.simulator import SharedStorage, replay_plan

SEASON = 48
THETA = 60.0


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(9)
    t = np.arange(SEASON * 16)
    return 900.0 + 400.0 * np.sin(2 * np.pi * t / SEASON) + rng.normal(0, 30, len(t))


@pytest.fixture(scope="module")
def runtime_and_series(series):
    train, test = series[: -SEASON * 6], series[-SEASON * 6 :]
    forecaster = SeasonalNaiveForecaster(horizon=SEASON, season=SEASON).fit(train)
    planner = RobustPredictiveAutoscaler(
        forecaster, THETA, FixedQuantilePolicy(0.9), quantile_levels=(0.5, 0.9)
    )
    runtime = AutoscalingRuntime(
        planner=planner,
        context_length=SEASON,
        horizon=SEASON,
        threshold=THETA,
        start_tick=len(train),
    )
    return runtime, test


class TestClosedLoop:
    def test_cluster_follows_runtime(self, runtime_and_series):
        runtime, test = runtime_and_series
        allocations = runtime.run(test)
        result = replay_plan(
            ScalingPlan(nodes=allocations, threshold=THETA),
            test,
            storage=SharedStorage(jitter_fraction=0.0),
            initial_nodes=1,
        )
        violations = sum(o.per_node_workload > THETA for o in result.outcomes)

        # After the cold-start context fills, the 0.9-quantile policy keeps
        # violations well below the reactive-only level.
        assert violations / len(test) < 0.25
        assert result.scale_out_events > 0
        assert result.scale_in_events > 0
        assert runtime.decisions  # predictive planning actually engaged

    def test_runtime_allocation_tracks_demand(self, runtime_and_series):
        runtime, test = runtime_and_series
        allocations = runtime.run(test)
        needed = required_nodes(test, THETA)
        # Skip the cold-start window; after it, under-allocation is rare.
        live = slice(SEASON, None)
        under = (allocations[live] < needed[live]).mean()
        assert under < 0.3
