"""Every shipped planner satisfies the Planner API — checked structurally.

The contract (``repro.core.plan.Planner``) is a ``typing.Protocol``:
anything with a ``name`` string and a ``plan(context, start_index=0) ->
ScalingPlan`` method is a planner.  These tests exercise the contract
directly — call the methods, inspect the results — rather than relying
on ``isinstance``, so a planner that would break real callers cannot
sneak through on structural typing technicalities.
"""

import inspect

import numpy as np
import pytest

from repro.core import (
    FixedQuantilePolicy,
    Planner,
    PointForecastScaler,
    ReactiveAvgScaler,
    ReactiveMaxScaler,
    RobustPredictiveAutoscaler,
)
from repro.forecast import SeasonalNaiveForecaster
from repro.forecast.qb5000 import LinearRegressionForecaster

SEASON = 12
HORIZON = 6
THRESHOLD = 60.0


def _training_series() -> np.ndarray:
    rng = np.random.default_rng(0)
    t = np.arange(10 * SEASON)
    return 200.0 + 80.0 * np.sin(2 * np.pi * t / SEASON) + rng.normal(0, 5, len(t))


def shipped_planners() -> list:
    """One configured instance of every planner the package ships."""
    series = _training_series()
    naive = SeasonalNaiveForecaster(HORIZON, season=SEASON)
    robust = RobustPredictiveAutoscaler(
        naive, THRESHOLD, FixedQuantilePolicy(0.9)
    ).fit(series)
    point = PointForecastScaler(
        LinearRegressionForecaster(SEASON, HORIZON).fit(series), THRESHOLD
    )
    reactive_max = ReactiveMaxScaler(window=4, threshold=THRESHOLD, horizon=HORIZON)
    reactive_avg = ReactiveAvgScaler(window=4, threshold=THRESHOLD, horizon=HORIZON)
    return [robust, point, reactive_max, reactive_avg]


def planner_ids() -> list[str]:
    return [type(p).__name__ for p in shipped_planners()]


@pytest.fixture(params=range(len(planner_ids())), ids=planner_ids())
def planner(request):
    return shipped_planners()[request.param]


class TestStructuralConformance:
    """No isinstance: exercise exactly what a Planner caller relies on."""

    def test_has_string_name(self, planner):
        assert isinstance(planner.name, str) and planner.name

    def test_plan_signature_accepts_context_and_start_index(self, planner):
        signature = inspect.signature(planner.plan)
        assert "start_index" in signature.parameters
        assert signature.parameters["start_index"].default == 0

    def test_plan_returns_valid_scaling_plan(self, planner):
        context = _training_series()[-2 * SEASON :]
        plan = planner.plan(context, start_index=len(_training_series()) - 2 * SEASON)
        nodes = np.asarray(plan.nodes)
        assert nodes.ndim == 1 and len(nodes) >= 1
        assert np.issubdtype(nodes.dtype, np.integer)
        assert np.all(nodes >= 1)
        assert plan.strategy  # labelled for the audit log
        assert np.all(np.asarray(plan.threshold, dtype=float) > 0)

    def test_plan_is_deterministic_given_context(self, planner):
        context = _training_series()[-2 * SEASON :]
        first = planner.plan(context, start_index=0)
        second = planner.plan(context, start_index=0)
        np.testing.assert_array_equal(first.nodes, second.nodes)


class TestProtocolAgreement:
    """The runtime_checkable Protocol agrees with the structural facts."""

    def test_all_shipped_planners_match_protocol(self):
        for instance in shipped_planners():
            assert isinstance(instance, Planner), type(instance).__name__

    def test_protocol_rejects_planless_object(self):
        class NotAPlanner:
            name = "nope"

        assert not isinstance(NotAPlanner(), Planner)


class TestReactivePlannerConstruction:
    def test_plan_without_threshold_raises_helpfully(self):
        scaler = ReactiveMaxScaler(window=4)
        with pytest.raises(ValueError, match="threshold"):
            scaler.plan(np.full(8, 100.0))

    def test_reactive_plan_matches_window_statistic(self):
        scaler = ReactiveMaxScaler(window=3, threshold=60.0, horizon=4)
        plan = scaler.plan(np.array([50.0, 400.0, 100.0, 90.0]))
        # window max = 400 -> 7 nodes, held for the whole horizon
        np.testing.assert_array_equal(plan.nodes, [7, 7, 7, 7])
