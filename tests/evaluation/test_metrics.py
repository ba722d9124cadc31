"""Tests for the forecast-quality metrics (Section IV-B)."""

import numpy as np
import pytest

from repro.evaluation import (
    coverage,
    evaluate_quantile_forecast,
    format_table,
    mean_weighted_quantile_loss,
    weighted_quantile_loss,
)
from repro.evaluation.metrics import mse, quantile_loss
from repro.evaluation.report import ForecastReport


class TestQuantileLoss:
    def test_perfect_forecast_zero_loss(self):
        y = np.array([1.0, 2.0, 3.0])
        assert quantile_loss(y, y, 0.9) == 0.0

    def test_asymmetric_penalty_high_tau(self):
        y = np.array([10.0])
        under = quantile_loss(y, np.array([8.0]), 0.9)  # forecast below target
        over = quantile_loss(y, np.array([12.0]), 0.9)
        assert under == pytest.approx(0.9 * 2.0)
        assert over == pytest.approx(0.1 * 2.0)
        assert under > over

    def test_asymmetric_penalty_low_tau(self):
        y = np.array([10.0])
        under = quantile_loss(y, np.array([8.0]), 0.1)
        over = quantile_loss(y, np.array([12.0]), 0.1)
        assert over > under

    def test_sums_over_all_elements(self):
        y = np.zeros((3, 2))
        pred = np.ones((3, 2))
        assert quantile_loss(y, pred, 0.5) == pytest.approx(0.5 * 6)

    def test_median_minimised_by_median(self):
        rng = np.random.default_rng(0)
        y = rng.exponential(2.0, size=10000)
        losses = {
            q: quantile_loss(y, np.full_like(y, np.quantile(y, q_hat)), 0.5)
            for q, q_hat in [(0.3, 0.3), (0.5, 0.5), (0.7, 0.7)]
        }
        assert losses[0.5] == min(losses.values())

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            quantile_loss(np.ones(2), np.ones(2), 1.5)


class TestWeightedQuantileLoss:
    def test_normalised_by_target_sum(self):
        y = np.array([10.0, 10.0])
        pred = np.array([8.0, 8.0])
        ql = quantile_loss(y, pred, 0.9)
        assert weighted_quantile_loss(y, pred, 0.9) == pytest.approx(2 * ql / 20.0)

    def test_scale_invariant(self):
        y = np.array([10.0, 20.0])
        pred = np.array([12.0, 18.0])
        a = weighted_quantile_loss(y, pred, 0.8)
        b = weighted_quantile_loss(10 * y, 10 * pred, 0.8)
        assert a == pytest.approx(b)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            weighted_quantile_loss(np.zeros(3), np.ones(3), 0.5)

    def test_mean_wql_averages(self):
        y = np.array([10.0, 10.0])
        forecasts = {0.5: np.array([9.0, 9.0]), 0.9: np.array([12.0, 12.0])}
        expected = np.mean(
            [weighted_quantile_loss(y, v, t) for t, v in forecasts.items()]
        )
        assert mean_weighted_quantile_loss(y, forecasts) == pytest.approx(expected)

    def test_mean_wql_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_weighted_quantile_loss(np.ones(2), {})


class TestCoverage:
    def test_perfect_coverage_values(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.array([2.0, 1.0, 4.0, 5.0])  # covers 1st, 3rd, 4th
        assert coverage(y, pred) == pytest.approx(0.75)

    def test_calibrated_gaussian_coverage(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=20000)
        from scipy import stats

        for tau in (0.7, 0.9):
            pred = np.full_like(y, stats.norm.ppf(tau))
            assert coverage(y, pred) == pytest.approx(tau, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coverage(np.array([]), np.array([]))

    def test_nan_targets_count_as_not_covered(self):
        # Missing observations must lower coverage (conservative), never
        # propagate NaN into the calibration statistics.
        y = np.array([1.0, np.nan, 1.0, np.nan])
        pred = np.full(4, 2.0)
        result = coverage(y, pred)
        assert not np.isnan(result)
        assert result == pytest.approx(0.5)

    def test_all_nan_targets_give_zero_coverage(self):
        assert coverage(np.full(3, np.nan), np.full(3, 2.0)) == 0.0


class TestPointMetrics:
    def test_mse(self):
        assert mse(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == pytest.approx(5.0)



class TestReport:
    def make_report(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(10, 20, size=50)
        forecasts = {tau: y + (tau - 0.5) * 4 for tau in (0.5, 0.7, 0.8, 0.9)}
        return evaluate_quantile_forecast("TFT", "alibaba", y, forecasts)

    def test_report_fields(self):
        report = self.make_report()
        assert report.model == "TFT"
        assert report.mean_wql > 0
        assert set(report.wql) == {0.7, 0.8, 0.9}
        assert report.coverage[0.9] == 1.0  # y + 1.6 always covers y

    def test_point_defaults_to_quantile_mean(self):
        y = np.full(4, 10.0)
        forecasts = {0.4: np.full(4, 8.0), 0.6: np.full(4, 12.0)}
        report = evaluate_quantile_forecast("m", "d", y, forecasts)
        assert report.mse == pytest.approx(0.0)  # mean of 8 and 12 is 10

    def test_format_table_contains_rows(self):
        text = format_table([self.make_report()], title="Table I")
        assert "Table I" in text
        assert "TFT" in text
        assert "mean_wQL" in text

    def test_as_row_length(self):
        assert len(self.make_report().as_row()) == 9
