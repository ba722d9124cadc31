"""Property-based tests on the core scaling invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    FixedQuantilePolicy,
    RobustAutoScalingManager,
    StaircasePolicy,
    UncertaintyAwarePolicy,
    required_nodes,
    solve_closed_form,
    solve_lp,
    solve_with_ramp_limits,
    quantile_uncertainty,
)
from repro.forecast import QuantileForecast

workloads = arrays(
    dtype=np.float64,
    shape=st.integers(1, 40),
    elements=st.floats(0.0, 5000.0, allow_nan=False),
)

thresholds = st.floats(1.0, 200.0, allow_nan=False)


class TestRequiredNodesProperties:
    @given(workloads, thresholds)
    def test_constraint_always_satisfied(self, w, theta):
        c = required_nodes(w, theta)
        assert np.all(w / c <= theta * (1 + 1e-9))

    @given(workloads, thresholds)
    def test_minimality(self, w, theta):
        c = required_nodes(w, theta)
        mask = c > 1
        if mask.any():
            assert np.all(w[mask] / (c[mask] - 1) > theta * (1 - 1e-9))

    @given(workloads, thresholds)
    def test_monotone_in_workload(self, w, theta):
        c_low = required_nodes(w, theta)
        c_high = required_nodes(w * 1.5 + 1.0, theta)
        assert np.all(c_high >= c_low)

    @given(workloads, thresholds)
    def test_antitone_in_threshold(self, w, theta):
        assert np.all(required_nodes(w, theta) >= required_nodes(w, theta * 2))


class TestSolverProperties:
    @settings(max_examples=25)
    @given(workloads, thresholds)
    def test_lp_equals_closed_form(self, w, theta):
        np.testing.assert_array_equal(
            solve_lp(w, theta).nodes, solve_closed_form(w, theta).nodes
        )

    @settings(max_examples=25)
    @given(workloads, thresholds, st.integers(1, 10), st.integers(1, 10))
    def test_ramped_feasible_and_bounded(self, w, theta, out_lim, in_lim):
        plan = solve_with_ramp_limits(w, theta, out_lim, in_lim)
        assert np.all(w / plan.nodes <= theta * (1 + 1e-9))
        if len(plan.nodes) > 1:
            deltas = np.diff(plan.nodes)
            assert deltas.max() <= out_lim
            assert deltas.min() >= -in_lim

    @settings(max_examples=25)
    @given(workloads, thresholds, st.integers(1, 10), st.integers(1, 10))
    def test_ramped_dominates_unconstrained(self, w, theta, out_lim, in_lim):
        ramped = solve_with_ramp_limits(w, theta, out_lim, in_lim)
        free = solve_closed_form(w, theta)
        assert np.all(ramped.nodes >= free.nodes)


quantile_fans = st.builds(
    lambda base, spreads: QuantileForecast(
        levels=np.array([0.1, 0.5, 0.9]),
        values=np.sort(
            base[None, :] + np.cumsum(np.abs(spreads), axis=0) - np.abs(spreads[0]),
            axis=0,
        ),
    ),
    arrays(np.float64, st.just(6), elements=st.floats(10, 1000)),
    arrays(np.float64, st.just((3, 6)), elements=st.floats(0, 50)),
)


class TestForecastProperties:
    @given(quantile_fans)
    def test_uncertainty_non_negative(self, fc):
        assert np.all(quantile_uncertainty(fc) >= -1e-9)

    @given(quantile_fans)
    def test_at_within_grid_bounds(self, fc):
        mid = fc.at(0.7)
        assert np.all(mid >= fc.values[0] - 1e-9)
        assert np.all(mid <= fc.values[-1] + 1e-9)

    @given(quantile_fans, st.floats(0.11, 0.89))
    def test_interpolation_monotone_in_tau(self, fc, tau):
        assert np.all(fc.at(tau + 0.01) >= fc.at(tau) - 1e-9)

    @given(quantile_fans)
    def test_higher_policy_never_allocates_less(self, fc):
        low = solve_closed_form(
            np.maximum(FixedQuantilePolicy(0.5).bound_workload(fc), 0.0), 60.0
        )
        high = solve_closed_form(
            np.maximum(FixedQuantilePolicy(0.9).bound_workload(fc), 0.0), 60.0
        )
        assert np.all(high.nodes >= low.nodes)


# ---------------------------------------------------------------------------
# The planner's vectorised paths against the loops they replaced, kept here
# as oracles: one series lookup per step, one Python ``max`` per ramp step.
# ---------------------------------------------------------------------------
def _bound_workload_loop(policy, forecast):
    levels = policy.select_levels(forecast)
    return np.array([forecast.at(tau)[t] for t, tau in enumerate(levels)])


def _ramp_loop(workload, threshold, max_scale_out, max_scale_in, initial_nodes):
    nodes = required_nodes(workload, threshold).astype(np.int64)
    horizon = len(nodes)
    if max_scale_out is not None:
        for t in range(horizon - 2, -1, -1):
            nodes[t] = max(nodes[t], nodes[t + 1] - max_scale_out)
    if initial_nodes is not None:
        if max_scale_out is not None and nodes[0] > initial_nodes + max_scale_out:
            raise ValueError("unreachable")
        if max_scale_in is not None:
            nodes[0] = max(nodes[0], initial_nodes - max_scale_in)
    if max_scale_in is not None:
        for t in range(1, horizon):
            nodes[t] = max(nodes[t], nodes[t - 1] - max_scale_in)
    return nodes


def _fan(base, spreads):
    levels = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99])
    return QuantileForecast(levels=levels, values=base[None, :] + np.cumsum(spreads, axis=0))


wide_fans = st.integers(1, 30).flatmap(
    lambda horizon: st.builds(
        _fan,
        arrays(np.float64, horizon, elements=st.floats(-50, 2000)),
        arrays(np.float64, (7, horizon), elements=st.floats(0, 60)),
    )
)
# cutoffs straddle the uncertainties the fans produce, so steps mix levels
policies = st.one_of(
    st.builds(FixedQuantilePolicy, st.sampled_from([0.5, 0.65, 0.9, 0.97])),
    st.builds(
        UncertaintyAwarePolicy,
        st.sampled_from([0.55, 0.7]), st.sampled_from([0.9, 0.93]), st.floats(0, 300),
    ),
    st.builds(
        lambda low, high: StaircasePolicy([(0.0, 0.6), (low, 0.75), (low + high, 0.95)]),
        st.floats(1, 100), st.floats(1, 200),
    ),
)
limits = st.one_of(st.none(), st.integers(1, 8))


class TestVectorisedPlannerMatchesLoops:
    @settings(max_examples=150, deadline=None)
    @given(wide_fans, policies)
    def test_bound_workload(self, fc, policy):
        bound = policy.bound_workload(fc)
        assert bound.dtype == np.float64
        np.testing.assert_array_equal(bound, _bound_workload_loop(policy, fc))
        # handing in what the manager precomputes changes nothing
        levels = policy.levels_for(quantile_uncertainty(fc))
        np.testing.assert_array_equal(levels, policy.select_levels(fc))
        np.testing.assert_array_equal(policy.bound_workload(fc, levels), bound)

    @settings(max_examples=300, deadline=None)
    @given(workloads, thresholds, limits, limits, st.one_of(st.none(), st.integers(1, 120)))
    def test_ramp_passes(self, w, theta, out_lim, in_lim, initial):
        try:
            want = _ramp_loop(w, theta, out_lim, in_lim, initial)
        except ValueError:
            with pytest.raises(ValueError, match="unreachable"):
                solve_with_ramp_limits(w, theta, out_lim, in_lim, initial_nodes=initial)
            return
        plan = solve_with_ramp_limits(w, theta, out_lim, in_lim, initial_nodes=initial)
        assert plan.nodes.dtype == np.int64
        np.testing.assert_array_equal(plan.nodes, want)

    @settings(max_examples=100, deadline=None)
    @given(wide_fans, policies, limits, limits, st.one_of(st.none(), st.integers(1, 60)))
    def test_manager_plan(self, fc, policy, out_lim, in_lim, current):
        manager = RobustAutoScalingManager(
            60.0, policy, max_scale_out=out_lim, max_scale_in=in_lim
        )
        bound = np.maximum(_bound_workload_loop(policy, fc), 0.0)
        try:
            want = _ramp_loop(bound, 60.0, out_lim, in_lim, current)
        except ValueError:
            with pytest.raises(ValueError, match="unreachable"):
                manager.plan(fc, current_nodes=current)
            return
        plan = manager.plan(fc, current_nodes=current)
        np.testing.assert_array_equal(plan.nodes, want)
        np.testing.assert_array_equal(plan.quantile_levels, policy.select_levels(fc))
        np.testing.assert_array_equal(plan.metadata["bound_workload"], bound)
        np.testing.assert_array_equal(plan.metadata["uncertainty"], quantile_uncertainty(fc))
        assert plan.metadata["ramp_clipped_steps"] == int(
            np.count_nonzero(want != required_nodes(bound, 60.0))
        )


class TestMetricProperties:
    @given(
        arrays(np.float64, st.just(20), elements=st.floats(1.0, 1000.0)),
        arrays(np.float64, st.just(20), elements=st.floats(1.0, 1000.0)),
        st.floats(0.05, 0.95),
    )
    def test_quantile_loss_non_negative(self, y, pred, tau):
        from repro.evaluation.metrics import quantile_loss

        assert quantile_loss(y, pred, tau) >= 0.0

    @given(
        arrays(np.float64, st.just(20), elements=st.floats(1.0, 1000.0)),
        st.floats(0.05, 0.95),
    )
    def test_quantile_loss_zero_iff_exact(self, y, tau):
        from repro.evaluation.metrics import quantile_loss

        assert quantile_loss(y, y, tau) == 0.0

    @given(
        arrays(np.float64, st.just(20), elements=st.floats(1.0, 1000.0)),
        arrays(np.float64, st.just(20), elements=st.floats(1.0, 1000.0)),
    )
    def test_coverage_in_unit_interval(self, y, pred):
        from repro.evaluation import coverage

        assert 0.0 <= coverage(y, pred) <= 1.0
