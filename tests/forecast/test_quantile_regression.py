"""Tests for the grid-output MLP."""

import pytest

from repro.forecast import MLPForecaster, MLPQuantileForecaster, TrainingConfig

CTX, HOR = 32, 16


@pytest.fixture(scope="module")
def grid_config():
    return TrainingConfig(epochs=4, batch_size=32, window_stride=6, patience=0, seed=0)


class TestMLPQuantile:
    def test_same_body_as_parametric_twin(self, seasonal_series, grid_config):
        grid = MLPQuantileForecaster(
            CTX, HOR, quantile_levels=(0.5,), hidden_size=16, config=grid_config
        ).fit(seasonal_series)
        parametric = MLPForecaster(
            CTX, HOR, hidden_size=16, config=grid_config
        ).fit(seasonal_series)
        grid_names = {n.split(".")[0] for n, _ in grid.network.named_parameters()}
        para_names = {n.split(".")[0] for n, _ in parametric.network.named_parameters()}
        assert {"fc1", "fc2"} <= grid_names
        assert {"fc1", "fc2"} <= para_names

    def test_fit_reduces_loss(self, seasonal_series, grid_config):
        f = MLPQuantileForecaster(
            CTX, HOR, quantile_levels=(0.1, 0.5, 0.9), hidden_size=16,
            config=grid_config,
        ).fit(seasonal_series)
        assert f.history[-1]["train_loss"] < f.history[0]["train_loss"]

    def test_interpolation_within_grid(self, seasonal_series, grid_config):
        f = MLPQuantileForecaster(
            CTX, HOR, quantile_levels=(0.1, 0.5, 0.9), hidden_size=16,
            config=grid_config,
        ).fit(seasonal_series)
        fc = f.predict(seasonal_series[-CTX:], levels=(0.3, 0.7))
        assert fc.values.shape == (2, HOR)

    def test_wrong_context_length(self, seasonal_series, grid_config):
        f = MLPQuantileForecaster(
            CTX, HOR, quantile_levels=(0.5,), hidden_size=16, config=grid_config
        ).fit(seasonal_series)
        with pytest.raises(ValueError):
            f.predict(seasonal_series[: CTX - 1])

    def test_outside_grid_raises(self, seasonal_series, grid_config):
        f = MLPQuantileForecaster(
            CTX, HOR, quantile_levels=(0.2, 0.5, 0.8), hidden_size=16, config=grid_config
        ).fit(seasonal_series)
        with pytest.raises(ValueError):
            f.predict(seasonal_series[-CTX:], levels=(0.95,))

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            MLPQuantileForecaster(CTX, HOR, quantile_levels=())
        with pytest.raises(ValueError):
            MLPQuantileForecaster(CTX, HOR, quantile_levels=(0.5, 0.5))
