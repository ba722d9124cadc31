"""Tests for the rolling-origin backtesting API."""

import numpy as np
import pytest

from repro.evaluation import backtest
from repro.forecast import SeasonalNaiveForecaster

SEASON = 48
LEVELS = (0.1, 0.5, 0.9)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(3)
    t = np.arange(SEASON * 20)
    series = 500.0 + 200.0 * np.sin(2 * np.pi * t / SEASON) + rng.normal(0, 10, len(t))
    train, test = series[: -SEASON * 6], series[-SEASON * 6 :]
    forecaster = SeasonalNaiveForecaster(horizon=SEASON, season=SEASON).fit(train)
    return forecaster, train, test


class TestBacktest:
    def test_window_count(self, fitted):
        forecaster, train, test = fitted
        result = backtest(forecaster, test, SEASON, SEASON, LEVELS)
        # 6 seasons of test data, context + horizon = 2 seasons -> 5 windows
        assert result.num_windows == 5
        assert len(result.merged_actual) == 5 * SEASON

    def test_merged_shapes_consistent(self, fitted):
        forecaster, _, test = fitted
        result = backtest(forecaster, test, SEASON, SEASON, LEVELS)
        for tau in LEVELS:
            assert result.merged_level(tau).shape == result.merged_actual.shape
        assert result.merged_point().shape == result.merged_actual.shape

    def test_coverage_ordering(self, fitted):
        forecaster, _, test = fitted
        result = backtest(forecaster, test, SEASON, SEASON, LEVELS)
        assert result.coverage(0.9) > result.coverage(0.1)

    def test_calibration_near_nominal(self, fitted):
        """Seasonal naive's residual quantiles are honestly calibrated."""
        forecaster, _, test = fitted
        result = backtest(forecaster, test, SEASON, SEASON, LEVELS)
        assert result.coverage(0.9) == pytest.approx(0.9, abs=0.1)
        assert result.coverage(0.5) == pytest.approx(0.5, abs=0.15)

    def test_metrics_positive_and_finite(self, fitted):
        forecaster, _, test = fitted
        result = backtest(forecaster, test, SEASON, SEASON, LEVELS)
        assert 0 < result.mean_wql() < 1
        assert 0 < result.wql(0.9) < 1
        assert np.isfinite(result.mse())

    def test_report_round_trip(self, fitted):
        forecaster, _, test = fitted
        result = backtest(forecaster, test, SEASON, SEASON, LEVELS)
        report = result.report("naive", "synthetic")
        assert report.model == "naive"
        assert report.mean_wql == pytest.approx(result.mean_wql())

    def test_stride_controls_density(self, fitted):
        forecaster, _, test = fitted
        dense = backtest(forecaster, test, SEASON, SEASON, LEVELS, stride=SEASON // 2)
        sparse = backtest(forecaster, test, SEASON, SEASON, LEVELS)
        assert dense.num_windows > sparse.num_windows

    def test_monitor_streams_every_window(self, fitted):
        from repro.obs import ModelHealthMonitor

        forecaster, _, test = fitted
        monitor = ModelHealthMonitor(window=SEASON)
        result = backtest(
            forecaster, test, SEASON, SEASON, LEVELS,
            series_start_index=1000, monitor=monitor,
        )
        assert monitor.steps_observed == result.num_windows * SEASON
        assert len(monitor.windows) == result.num_windows
        # Absolute indexing carries through from series_start_index.
        assert monitor.windows[0].start_index == 1000 + SEASON
        # The monitor's streaming coverage agrees with the offline table
        # (equal-size windows, so the mean of window coverages is exact).
        assert float(monitor.coverage_series(0.9).mean()) == pytest.approx(
            result.coverage(0.9), abs=1e-9
        )

    def test_too_short_series_raises(self, fitted):
        forecaster, _, test = fitted
        with pytest.raises(ValueError):
            backtest(forecaster, test[: SEASON + 1], SEASON, SEASON, LEVELS)
