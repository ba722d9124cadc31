"""Tests for MLP, DeepAR, TFT, QB5000, and the point adapters.

Training budgets are deliberately tiny; assertions check structure,
calibration direction, and that learning reduces loss — not paper-level
accuracy (the benchmark suite covers that).
"""

import numpy as np
import pytest

from repro.forecast import (
    DeepARForecaster,
    MLPForecaster,
    PaddedPointForecaster,
    QB5000Forecaster,
    TFTForecaster,
    TFTPointForecaster,
    TrainingConfig,
)
from repro.forecast.qb5000 import KernelRegressionForecaster, LinearRegressionForecaster

from .conftest import SEASON

CTX, HOR = 32, 16


class TestMLP:
    def test_fit_reduces_loss(self, seasonal_series, tiny_config):
        f = MLPForecaster(CTX, HOR, hidden_size=16, config=tiny_config).fit(seasonal_series)
        assert f.history[-1]["train_loss"] < f.history[0]["train_loss"]

    def test_forecast_shapes_and_order(self, seasonal_series, tiny_config):
        f = MLPForecaster(CTX, HOR, hidden_size=16, config=tiny_config).fit(seasonal_series)
        fc = f.predict(seasonal_series[-CTX:], levels=(0.1, 0.5, 0.9))
        assert fc.horizon == HOR
        assert np.all(fc.at(0.9) > fc.at(0.1))

    def test_arbitrary_quantiles_available(self, seasonal_series, tiny_config):
        """Parametric models serve any level without retraining."""
        f = MLPForecaster(CTX, HOR, hidden_size=16, config=tiny_config).fit(seasonal_series)
        fc = f.predict(seasonal_series[-CTX:], levels=(0.123, 0.987))
        assert fc.values.shape == (2, HOR)

    def test_predictive_distribution_positive_std(self, seasonal_series, tiny_config):
        f = MLPForecaster(CTX, HOR, hidden_size=16, config=tiny_config).fit(seasonal_series)
        dist = f.predictive_distribution(seasonal_series[-CTX:])
        assert np.all(dist.std() > 0)

    def test_wrong_context_length_raises(self, seasonal_series, tiny_config):
        f = MLPForecaster(CTX, HOR, hidden_size=16, config=tiny_config).fit(seasonal_series)
        with pytest.raises(ValueError):
            f.predict(seasonal_series[: CTX + 1])

    def test_too_short_series_raises(self, tiny_config):
        with pytest.raises(ValueError):
            MLPForecaster(CTX, HOR, config=tiny_config).fit(np.ones(CTX + HOR))


class TestDeepAR:
    @pytest.fixture(scope="class")
    def fitted(self, seasonal_series):
        config = TrainingConfig(epochs=3, batch_size=32, window_stride=6, patience=0)
        return DeepARForecaster(
            CTX, HOR, hidden_size=12, num_layers=1, num_samples=40, config=config
        ).fit(seasonal_series)

    def test_fit_reduces_loss(self, fitted):
        assert fitted.history[-1]["train_loss"] < fitted.history[0]["train_loss"]

    def test_sample_cloud_shape(self, fitted, seasonal_series):
        cloud = fitted.sample_paths(seasonal_series[-CTX:])
        assert cloud.samples.shape == (40, HOR)

    def test_quantiles_from_samples_ordered(self, fitted, seasonal_series):
        fc = fitted.predict(seasonal_series[-CTX:], levels=(0.2, 0.5, 0.8))
        assert np.all(fc.at(0.8) >= fc.at(0.2))

    def test_sampling_spread_reasonable(self, fitted, seasonal_series):
        """The sample std should be within an order of the noise scale."""
        cloud = fitted.sample_paths(seasonal_series[-CTX:])
        assert 0.3 < cloud.std().mean() < 60.0

    def test_gaussian_likelihood_variant(self, seasonal_series, tiny_config):
        f = DeepARForecaster(
            CTX, HOR, hidden_size=8, num_samples=20,
            likelihood="gaussian", config=tiny_config,
        ).fit(seasonal_series)
        fc = f.predict(seasonal_series[-CTX:], levels=(0.5,))
        assert fc.horizon == HOR

    def test_rejects_unknown_likelihood(self):
        with pytest.raises(ValueError):
            DeepARForecaster(CTX, HOR, likelihood="poisson")

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            DeepARForecaster(CTX, HOR, num_samples=1)


class TestTFT:
    @pytest.fixture(scope="class")
    def fitted(self, seasonal_series):
        config = TrainingConfig(epochs=3, batch_size=32, window_stride=6, patience=0)
        return TFTForecaster(
            CTX, HOR, quantile_levels=(0.1, 0.5, 0.9), d_model=12, num_heads=2,
            config=config,
        ).fit(seasonal_series)

    def test_fit_reduces_loss(self, fitted):
        assert fitted.history[-1]["train_loss"] < fitted.history[0]["train_loss"]

    def test_grid_forecast(self, fitted, seasonal_series):
        fc = fitted.predict(seasonal_series[-CTX:])
        assert fc.values.shape == (3, HOR)
        assert np.all(np.diff(fc.values, axis=0) >= 0)  # monotone after sort

    def test_off_grid_interpolation(self, fitted, seasonal_series):
        fc = fitted.predict(seasonal_series[-CTX:], levels=(0.3,))
        low = fitted.predict(seasonal_series[-CTX:]).at(0.1)
        high = fitted.predict(seasonal_series[-CTX:]).at(0.5)
        assert np.all(fc.values[0] >= np.minimum(low, high) - 1e-9)
        assert np.all(fc.values[0] <= np.maximum(low, high) + 1e-9)

    def test_outside_grid_raises(self, fitted, seasonal_series):
        with pytest.raises(ValueError):
            fitted.predict(seasonal_series[-CTX:], levels=(0.99,))

    def test_attention_weights_exposed(self, fitted, seasonal_series):
        fitted.predict(seasonal_series[-CTX:])
        weights = fitted.attention_weights()
        assert weights is not None
        assert weights.shape == (1, HOR, CTX + HOR)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-6)

    def test_rejects_duplicate_levels(self):
        with pytest.raises(ValueError):
            TFTForecaster(CTX, HOR, quantile_levels=(0.5, 0.5))

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ValueError):
            TFTForecaster(CTX, HOR, quantile_levels=(0.0, 0.5))


class TestQB5000:
    def test_linear_component_learns_trend(self):
        t = np.arange(500, dtype=float)
        f = LinearRegressionForecaster(CTX, HOR).fit(2.0 * t)
        pred = f.predict_point(2.0 * t[-CTX:])
        expected = 2.0 * (t[-1] + np.arange(1, HOR + 1))
        np.testing.assert_allclose(pred, expected, rtol=1e-6)

    def test_kernel_component_recalls_similar_windows(self, seasonal_series):
        f = KernelRegressionForecaster(CTX, HOR).fit(seasonal_series[:-HOR])
        pred = f.predict_point(seasonal_series[-CTX - HOR : -HOR])
        actual = seasonal_series[-HOR:]
        assert np.abs(pred - actual).mean() < 15.0

    def test_kernel_degenerate_bandwidth_falls_back(self):
        constant = np.full(200, 5.0)
        f = KernelRegressionForecaster(CTX, HOR).fit(constant)
        pred = f.predict_point(np.full(CTX, 1000.0))  # far from everything
        assert pred.shape == (HOR,)
        assert np.all(np.isfinite(pred))

    def test_ensemble_combines_components(self, seasonal_series, tiny_config):
        f = QB5000Forecaster(CTX, HOR, hidden_size=8, config=tiny_config).fit(
            seasonal_series
        )
        pred = f.predict_point(seasonal_series[-CTX:])
        parts = [
            f.linear.predict_point(seasonal_series[-CTX:]),
            f.lstm.predict_point(seasonal_series[-CTX:]),
            f.kernel.predict_point(seasonal_series[-CTX:]),
        ]
        np.testing.assert_allclose(pred, np.mean(parts, axis=0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            QB5000Forecaster(CTX, HOR).predict_point(np.ones(CTX))


class TestPointAdapters:
    def test_tft_point_single_quantile(self, seasonal_series, tiny_config):
        f = TFTPointForecaster(CTX, HOR, d_model=12, num_heads=2, config=tiny_config)
        f.fit(seasonal_series)
        pred = f.predict_point(seasonal_series[-CTX:])
        assert pred.shape == (HOR,)
        assert f._tft.quantile_levels == (0.5,)

class TestPadding:
    """The padding learns from the context of its next forecast: a context
    holding steps the previous forecast covered records that forecast's
    unpadded underestimation errors there."""

    class _ConstantForecaster:
        _fitted = True

        def fit(self, series):
            return self

        def predict_point(self, context, start_index=0):
            return np.full(4, 10.0)

    def make(self, **kwargs):
        return PaddedPointForecaster(self._ConstantForecaster(), **kwargs)

    def test_no_history_no_padding(self):
        padded = self.make()
        np.testing.assert_array_equal(padded.predict_point(np.ones(4)), np.full(4, 10.0))

    def test_underestimation_raises_padding(self):
        padded = self.make(percentile=1.0)
        padded.predict_point(np.ones(4), start_index=0)  # forecasts steps 4-7 at 10
        forecast = padded.predict_point(np.full(4, 13.0), start_index=4)  # they came in at 13
        assert padded.padding == pytest.approx(3.0)
        np.testing.assert_allclose(forecast, np.full(4, 13.0))

    def test_overestimation_ignored(self):
        padded = self.make()
        padded.predict_point(np.ones(4), start_index=0)
        padded.predict_point(np.full(4, 5.0), start_index=4)
        assert padded.padding == 0.0

    def test_window_evicts_old_errors(self):
        padded = self.make(window=4, percentile=1.0)
        padded.predict_point(np.ones(4), start_index=0)
        padded.predict_point(np.full(4, 20.0), start_index=4)
        padded.predict_point(np.full(4, 11.0), start_index=8)
        assert padded.padding == pytest.approx(1.0)  # the 10.0 errors evicted

    def test_observe_shape_mismatch(self):
        """A context that saw only part of the last forecast records only
        the steps it saw."""
        padded = self.make(percentile=1.0)
        padded.predict_point(np.ones(4), start_index=0)  # covers steps 4-7
        padded.predict_point(np.full(4, 30.0), start_index=2)  # observed steps 4 and 5
        assert list(padded._errors) == [20.0, 20.0]

    def test_errors_are_the_unpadded_forecasts(self):
        padded = self.make(percentile=1.0)
        padded.predict_point(np.ones(4), start_index=0)
        padded.predict_point(np.full(4, 13.0), start_index=4)  # padded forecast 13
        padded.predict_point(np.full(4, 13.0), start_index=8)
        assert padded.padding == pytest.approx(3.0)  # 13 - 10, not 13 - 13

    def test_reports_the_base_fitted_state(self, seasonal_series):
        base = LinearRegressionForecaster(CTX, HOR)
        padded = PaddedPointForecaster(base)
        with pytest.raises(RuntimeError, match="before fit"):
            padded.predict_point(seasonal_series[-CTX:])
        base.fit(seasonal_series)  # a fitted base needs no fit() of the wrapper
        assert padded.predict_point(seasonal_series[-CTX:]).shape == (HOR,)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            self.make(percentile=0.0)
        with pytest.raises(ValueError):
            self.make(window=0)
