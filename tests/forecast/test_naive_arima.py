"""Tests for the naive and ARIMA forecasters."""

import numpy as np
import pytest

from repro.forecast import ARIMAForecaster, SeasonalNaiveForecaster

from .conftest import SEASON


class TestSeasonalNaive:
    def test_repeats_last_season(self, seasonal_series):
        f = SeasonalNaiveForecaster(horizon=SEASON, season=SEASON).fit(seasonal_series)
        context = seasonal_series[-SEASON * 2 :]
        fc = f.predict(context)
        np.testing.assert_array_equal(fc.mean, context[-SEASON:])

    def test_horizon_longer_than_season_wraps(self, seasonal_series):
        f = SeasonalNaiveForecaster(horizon=SEASON + 5, season=SEASON).fit(seasonal_series)
        fc = f.predict(seasonal_series[-SEASON:])
        np.testing.assert_array_equal(fc.mean[SEASON:], fc.mean[:5])

    def test_quantiles_ordered(self, seasonal_series):
        f = SeasonalNaiveForecaster(horizon=8, season=SEASON).fit(seasonal_series)
        fc = f.predict(seasonal_series[-SEASON:], levels=(0.1, 0.5, 0.9))
        assert np.all(fc.at(0.9) >= fc.at(0.5))
        assert np.all(fc.at(0.5) >= fc.at(0.1))

    def test_reasonable_accuracy_on_seasonal_data(self, seasonal_series):
        f = SeasonalNaiveForecaster(horizon=SEASON, season=SEASON).fit(
            seasonal_series[:-SEASON]
        )
        fc = f.predict(seasonal_series[-SEASON * 2 : -SEASON])
        error = np.abs(fc.mean - seasonal_series[-SEASON:]).mean()
        assert error < 10.0  # noise std is 3; far below the 30-amplitude signal

    def test_short_context_raises(self, seasonal_series):
        f = SeasonalNaiveForecaster(horizon=4, season=SEASON).fit(seasonal_series)
        with pytest.raises(ValueError):
            f.predict(seasonal_series[: SEASON // 2])

    def test_short_series_raises(self):
        with pytest.raises(ValueError):
            SeasonalNaiveForecaster(horizon=4, season=100).fit(np.ones(50))


class TestARIMA:
    def test_fits_ar1_process(self):
        """On a known AR(1), the fitted AR coefficient should be close."""
        rng = np.random.default_rng(1)
        n, phi = 4000, 0.8
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + rng.normal()
        f = ARIMAForecaster(horizon=5, order=(1, 0, 0)).fit(x)
        assert f.ar_coef[0] == pytest.approx(phi, abs=0.05)

    def test_sigma_close_to_innovation_std(self):
        rng = np.random.default_rng(2)
        n = 4000
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = 0.5 * x[t - 1] + rng.normal(0.0, 2.0)
        f = ARIMAForecaster(horizon=5, order=(1, 0, 0)).fit(x)
        assert f.sigma == pytest.approx(2.0, rel=0.1)

    def test_psi_weights_ar1(self):
        f = ARIMAForecaster(horizon=4, order=(1, 0, 0))
        f.ar_coef = np.array([0.5])
        np.testing.assert_allclose(f.psi_weights(4), [1.0, 0.5, 0.25, 0.125])

    def test_psi_weights_ma1(self):
        f = ARIMAForecaster(horizon=3, order=(0, 0, 1))
        f.ma_coef = np.array([0.7])
        np.testing.assert_allclose(f.psi_weights(3), [1.0, 0.7, 0.0])

    def test_forecast_spread_grows(self, seasonal_series):
        f = ARIMAForecaster(horizon=20, order=(2, 1, 1)).fit(seasonal_series)
        fc = f.predict(seasonal_series[-200:], levels=(0.1, 0.9))
        width = fc.at(0.9) - fc.at(0.1)
        assert width[-1] > width[0]

    def test_differencing_handles_trend(self):
        """ARIMA(1,1,0) should track a linear trend that AR alone cannot."""
        rng = np.random.default_rng(3)
        t = np.arange(2000, dtype=float)
        x = 2.0 * t + rng.normal(0, 1.0, size=len(t))
        f = ARIMAForecaster(horizon=10, order=(1, 1, 0)).fit(x)
        fc = f.predict(x[-200:])
        expected = 2.0 * (t[-1] + np.arange(1, 11))
        np.testing.assert_allclose(fc.mean, expected, rtol=0.01)

    def test_quantiles_bracket_mean(self, seasonal_series):
        f = ARIMAForecaster(horizon=10).fit(seasonal_series)
        fc = f.predict(seasonal_series[-200:], levels=(0.1, 0.5, 0.9))
        assert np.all(fc.at(0.9) > fc.at(0.1))
        np.testing.assert_allclose(fc.at(0.5), fc.mean, rtol=1e-9)

    def test_rejects_invalid_order(self):
        with pytest.raises(ValueError):
            ARIMAForecaster(horizon=5, order=(0, 1, 0))

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            ARIMAForecaster(horizon=5).fit(np.ones(20))

    def test_short_context_raises(self, seasonal_series):
        f = ARIMAForecaster(horizon=5).fit(seasonal_series)
        with pytest.raises(ValueError):
            f.predict(seasonal_series[:5])
