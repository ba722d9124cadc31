"""Tests for the Eq. 8 uncertainty metric and quantile-selection policies."""

import numpy as np
import pytest

from repro.core import (
    FixedQuantilePolicy,
    StaircasePolicy,
    UncertaintyAwarePolicy,
    quantile_uncertainty,
)
from repro.forecast import QuantileForecast


def fan_forecast(width: float, horizon: int = 4) -> QuantileForecast:
    """Symmetric quantile fan of the given half-width around 100."""
    levels = np.array([0.1, 0.5, 0.9])
    values = np.stack(
        [
            np.full(horizon, 100.0 - width),
            np.full(horizon, 100.0),
            np.full(horizon, 100.0 + width),
        ]
    )
    return QuantileForecast(levels=levels, values=values)


class TestQuantileUncertainty:
    def test_collapsed_fan_zero_uncertainty(self):
        np.testing.assert_allclose(quantile_uncertainty(fan_forecast(0.0)), 0.0)

    def test_uncertainty_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            base = rng.uniform(10, 100, size=5)
            spread = rng.uniform(0, 20, size=(3, 5))
            values = np.sort(base + np.cumsum(spread, axis=0), axis=0)
            fc = QuantileForecast(levels=np.array([0.2, 0.5, 0.8]), values=values)
            assert np.all(quantile_uncertainty(fc) >= -1e-12)

    def test_wider_fan_higher_uncertainty(self):
        narrow = quantile_uncertainty(fan_forecast(5.0))
        wide = quantile_uncertainty(fan_forecast(20.0))
        assert np.all(wide > narrow)

    def test_exact_value_symmetric_fan(self):
        # upper: 0.9 * width ; lower: (1-0.1) * width ; median contributes 0
        width = 10.0
        expected = 0.9 * width + 0.9 * width
        np.testing.assert_allclose(quantile_uncertainty(fan_forecast(width)), expected)

    def test_per_step_resolution(self):
        levels = np.array([0.1, 0.5, 0.9])
        values = np.array(
            [[99.0, 90.0], [100.0, 100.0], [101.0, 110.0]]
        )  # step 0 tight, step 1 wide
        fc = QuantileForecast(levels=levels, values=values)
        u = quantile_uncertainty(fc)
        assert u[1] > u[0]


class TestFixedPolicy:
    def test_constant_levels(self):
        policy = FixedQuantilePolicy(0.9)
        np.testing.assert_array_equal(
            policy.select_levels(fan_forecast(5.0)), np.full(4, 0.9)
        )

    def test_bound_is_quantile(self):
        policy = FixedQuantilePolicy(0.9)
        np.testing.assert_allclose(
            policy.bound_workload(fan_forecast(5.0)), np.full(4, 105.0)
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FixedQuantilePolicy(1.0)

    def test_name(self):
        assert FixedQuantilePolicy(0.8).name == "fixed-0.8"


class TestUncertaintyAwarePolicy:
    def test_algorithm1_switching(self):
        """Low-U steps use tau1; high-U steps use tau2 (Algorithm 1)."""
        levels = np.array([0.1, 0.5, 0.9])
        values = np.array([[99.0, 80.0], [100.0, 100.0], [101.0, 120.0]])
        fc = QuantileForecast(levels=levels, values=values)
        u = quantile_uncertainty(fc)
        threshold = (u[0] + u[1]) / 2
        policy = UncertaintyAwarePolicy(0.7, 0.9, uncertainty_threshold=threshold)
        np.testing.assert_array_equal(policy.select_levels(fc), [0.7, 0.9])

    def test_threshold_boundary_is_conservative(self):
        """At U == rho exactly, Algorithm 1 picks the conservative level."""
        fc = fan_forecast(10.0)
        u = quantile_uncertainty(fc)[0]
        policy = UncertaintyAwarePolicy(0.6, 0.9, uncertainty_threshold=u)
        np.testing.assert_array_equal(policy.select_levels(fc), np.full(4, 0.9))

    def test_infinite_threshold_always_optimistic(self):
        policy = UncertaintyAwarePolicy(0.6, 0.9, uncertainty_threshold=np.inf)
        np.testing.assert_array_equal(
            policy.select_levels(fan_forecast(50.0)), np.full(4, 0.6)
        )

    def test_zero_threshold_always_conservative(self):
        policy = UncertaintyAwarePolicy(0.6, 0.9, uncertainty_threshold=0.0)
        np.testing.assert_array_equal(
            policy.select_levels(fan_forecast(50.0)), np.full(4, 0.9)
        )

    def test_bound_mixes_levels(self):
        levels = np.array([0.1, 0.5, 0.9])
        values = np.array([[99.0, 80.0], [100.0, 100.0], [101.0, 120.0]])
        fc = QuantileForecast(levels=levels, values=values)
        u = quantile_uncertainty(fc)
        policy = UncertaintyAwarePolicy(
            0.5, 0.9, uncertainty_threshold=(u[0] + u[1]) / 2
        )
        bound = policy.bound_workload(fc)
        assert bound[0] == pytest.approx(100.0)  # optimistic median at step 0
        assert bound[1] == pytest.approx(120.0)  # conservative 0.9 at step 1

    def test_rejects_inverted_levels(self):
        with pytest.raises(ValueError):
            UncertaintyAwarePolicy(0.9, 0.6, uncertainty_threshold=1.0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            UncertaintyAwarePolicy(0.6, 0.9, uncertainty_threshold=-1.0)


class TestStaircasePolicy:
    def test_three_rung_selection(self):
        rungs = [(0.0, 0.6), (10.0, 0.8), (30.0, 0.95)]
        policy = StaircasePolicy(rungs)
        levels = np.array([0.1, 0.5, 0.9])
        # widths 2, 12, 40 -> uncertainties 3.6, 21.6, 72
        values = np.array(
            [
                [98.0, 88.0, 60.0],
                [100.0, 100.0, 100.0],
                [102.0, 112.0, 140.0],
            ]
        )
        fc = QuantileForecast(levels=levels, values=values)
        np.testing.assert_array_equal(policy.select_levels(fc), [0.6, 0.8, 0.95])

    def test_two_rungs_equivalent_to_algorithm1(self):
        fc = fan_forecast(10.0)
        u = float(quantile_uncertainty(fc)[0])
        stair = StaircasePolicy([(0.0, 0.6), (u, 0.9)])
        adaptive = UncertaintyAwarePolicy(0.6, 0.9, uncertainty_threshold=u)
        np.testing.assert_array_equal(
            stair.select_levels(fc), adaptive.select_levels(fc)
        )

    def test_rejects_unsorted_cutoffs(self):
        with pytest.raises(ValueError):
            StaircasePolicy([(5.0, 0.6), (0.0, 0.9)])

    def test_rejects_decreasing_taus(self):
        with pytest.raises(ValueError):
            StaircasePolicy([(0.0, 0.9), (5.0, 0.6)])

    def test_rejects_nonzero_base(self):
        with pytest.raises(ValueError):
            StaircasePolicy([(1.0, 0.6)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StaircasePolicy([])
