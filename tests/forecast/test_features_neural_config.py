"""Tests for calendar features and the shared training scaffolding."""

import numpy as np
import pytest

from repro.forecast import NUM_CALENDAR_FEATURES, TrainingConfig
from repro.forecast.features import calendar_features
from repro.forecast.neural import NeuralForecaster
from repro.traces import STEPS_PER_DAY, STEPS_PER_WEEK


class TestCalendarFeatures:
    def test_shape(self):
        out = calendar_features(np.arange(10))
        assert out.shape == (10, NUM_CALENDAR_FEATURES)

    def test_batched_shape(self):
        out = calendar_features(np.zeros((4, 7)))
        assert out.shape == (4, 7, NUM_CALENDAR_FEATURES)

    def test_daily_periodicity(self):
        a = calendar_features(np.array([5]))
        b = calendar_features(np.array([5 + STEPS_PER_DAY * 7]))  # whole weeks later
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_day_feature_not_weekly_periodic(self):
        a = calendar_features(np.array([0]))
        b = calendar_features(np.array([STEPS_PER_DAY]))
        # day features equal; week features differ
        np.testing.assert_allclose(a[0, :2], b[0, :2], atol=1e-9)
        assert not np.allclose(a[0, 2:], b[0, 2:])

    def test_bounded(self):
        out = calendar_features(np.arange(STEPS_PER_WEEK))
        assert np.all(np.abs(out) <= 1.0)


class TestTrainingConfig:
    def test_defaults(self):
        config = TrainingConfig()
        assert config.learning_rate == 1e-3  # the paper's setting

    def test_rejects_bad_epochs(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)

    def test_rejects_bad_validation_fraction(self):
        with pytest.raises(ValueError):
            TrainingConfig(validation_fraction=0.5)


class _Minimal(NeuralForecaster):
    """Concrete shell exposing the base-class hooks for testing."""

    def predict(self, context, levels=(), start_index=0):
        raise NotImplementedError


class TestNeuralForecasterScaffolding:
    def test_subclass_hooks_required(self):
        forecaster = _Minimal(context_length=4, horizon=2)
        with pytest.raises(NotImplementedError):
            forecaster._build(np.random.default_rng(0))
        with pytest.raises(NotImplementedError):
            forecaster._forward_loss(np.zeros((1, 4)), np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(NotImplementedError):  # the training step is built on it
            forecaster._loss_backward(np.zeros((1, 4)), np.zeros((1, 2)), np.zeros(1))

    def test_rejects_degenerate_lengths(self):
        with pytest.raises(ValueError):
            _Minimal(context_length=0, horizon=2)
        with pytest.raises(ValueError):
            _Minimal(context_length=4, horizon=0)

    def test_early_stopping_restores_best(self, seasonal_series=None):
        """With patience, the loaded weights must be the best-val epoch's."""
        from repro.forecast import MLPForecaster

        rng = np.random.default_rng(0)
        t = np.arange(48 * 12)
        series = 100.0 + 30.0 * np.sin(2 * np.pi * t / 48) + rng.normal(0, 3, len(t))
        config = TrainingConfig(
            epochs=6, batch_size=32, window_stride=4, patience=2,
            validation_fraction=0.25, seed=0,
        )
        model = MLPForecaster(24, 8, hidden_size=16, config=config).fit(series)
        val_losses = [h["val_loss"] for h in model.history if "val_loss" in h]
        assert val_losses, "validation never ran"
        # Training stopped within patience of the best epoch.
        best_epoch = int(np.argmin(val_losses))
        assert len(val_losses) <= best_epoch + 1 + config.patience
