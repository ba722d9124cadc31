"""Tests for QuantileForecast and the forecaster interfaces."""

import numpy as np
import pytest

from repro.forecast import (
    MLPQuantileForecaster,
    QuantileForecast,
    SeasonalNaiveForecaster,
    TFTForecaster,
    TrainingConfig,
)


def make_forecast():
    levels = np.array([0.1, 0.5, 0.9])
    values = np.stack([np.full(4, 8.0), np.full(4, 10.0), np.full(4, 14.0)])
    return QuantileForecast(levels=levels, values=values)


class TestQuantileForecast:
    def test_horizon(self):
        assert make_forecast().horizon == 4

    def test_at_exact_level(self):
        np.testing.assert_array_equal(make_forecast().at(0.5), np.full(4, 10.0))

    def test_at_interpolates(self):
        # halfway between 0.5 (10) and 0.9 (14)
        np.testing.assert_allclose(make_forecast().at(0.7), np.full(4, 12.0))

    def test_at_outside_grid_raises(self):
        with pytest.raises(ValueError):
            make_forecast().at(0.95)

    def test_median_property(self):
        np.testing.assert_array_equal(make_forecast().median, np.full(4, 10.0))

    def test_point_prefers_mean(self):
        fc = QuantileForecast(
            levels=np.array([0.5]), values=np.full((1, 3), 5.0), mean=np.full(3, 7.0)
        )
        np.testing.assert_array_equal(fc.point, np.full(3, 7.0))

    def test_point_falls_back_to_median(self):
        np.testing.assert_array_equal(make_forecast().point, np.full(4, 10.0))

    def test_as_dict(self):
        d = make_forecast().as_dict()
        assert set(d) == {0.1, 0.5, 0.9}
        np.testing.assert_array_equal(d[0.9], np.full(4, 14.0))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            QuantileForecast(levels=np.array([0.5]), values=np.ones((2, 3)))

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            QuantileForecast(levels=np.array([0.9, 0.5]), values=np.ones((2, 3)))

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ValueError):
            QuantileForecast(levels=np.array([0.0, 0.5]), values=np.ones((2, 3)))

    def test_rejects_bad_mean_shape(self):
        with pytest.raises(ValueError):
            QuantileForecast(
                levels=np.array([0.5]), values=np.ones((1, 3)), mean=np.ones(2)
            )


# Each invalid grid and the exact message the container refuses it with.
INVALID_GRIDS = [
    (dict(levels=[0.0, 0.5], values=np.ones((2, 3))), "quantile levels must lie in (0, 1)"),
    (dict(levels=[-0.1, 0.5], values=np.ones((2, 3))), "quantile levels must lie in (0, 1)"),
    (dict(levels=[0.5, 1.0], values=np.ones((2, 3))), "quantile levels must lie in (0, 1)"),
    (dict(levels=[0.5, 1.5], values=np.ones((2, 3))), "quantile levels must lie in (0, 1)"),
    (dict(levels=[0.5, 0.5], values=np.ones((2, 3))), "levels must be strictly increasing"),
    (dict(levels=[0.1, 0.9, 0.5], values=np.ones((3, 3))), "levels must be strictly increasing"),
    (dict(levels=[[0.1, 0.5]], values=np.ones((1, 3))), "levels must be 1-D"),
    (
        dict(levels=[0.5], values=np.ones((2, 3))),
        "values first axis (2) must match number of levels (1)",
    ),
    (
        dict(levels=[0.5], values=np.ones((1, 3)), mean=np.ones(2)),
        "mean must have shape (horizon,)",
    ),
]


class TestQuantileForecastContract:
    @pytest.mark.parametrize("kwargs, message", INVALID_GRIDS, ids=[
        "level-zero", "level-negative", "level-one", "level-above-one", "equal-neighbours",
        "decreasing", "two-d-levels", "row-count-mismatch", "bad-mean-shape",
    ])
    def test_invalid_grid_raises_its_message(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            QuantileForecast(**kwargs)
        assert str(raised.value) == message

    def test_nan_level_passes_the_grid_checks(self):
        # NaN compares false, so none of the four conditions fires on it.
        fc = QuantileForecast(levels=[0.1, np.nan, 0.9], values=np.ones((3, 2)))
        assert np.isnan(fc.levels[1])

    def test_at_returns_the_first_level_within_tolerance(self):
        fc = QuantileForecast(
            levels=[0.5, 0.500001], values=np.stack([np.full(2, 1.0), np.full(2, 2.0)])
        )
        np.testing.assert_array_equal(fc.at(0.5), np.full(2, 1.0))
        np.testing.assert_array_equal(fc.at(0.500001), np.full(2, 1.0))
        assert np.shares_memory(fc.at(0.5), fc.values)

    def test_at_interpolates_between_levels(self):
        fc = QuantileForecast(levels=[0.2, 0.6], values=np.stack([np.zeros(2), np.full(2, 4.0)]))
        expected = (1.0 - (0.3 - 0.2) / (0.6 - 0.2)) * 0.0 + (0.3 - 0.2) / (0.6 - 0.2) * 4.0
        np.testing.assert_array_equal(fc.at(0.3), np.full(2, expected))

    @pytest.mark.parametrize("tau", [0.1, 0.7, np.inf, -np.inf])
    def test_at_outside_the_grid_raises(self, tau):
        fc = QuantileForecast(levels=[0.2, 0.6], values=np.ones((2, 2)))
        with pytest.raises(ValueError, match="outside forecast grid"):
            fc.at(tau)


def _reversed_heads(network):
    """``network.fast_forward`` with its quantile axis reversed: the heads cross."""
    forward = network.fast_forward
    return lambda *args, **kwargs: forward(*args, **kwargs)[..., ::-1]


class TestGridForecastsDoNotCross:
    """A grid forecaster sorts each step's values across levels before it
    builds its one container, so crossed heads still serve a monotone fan."""

    @pytest.fixture(scope="class", params=["tft", "quantile-regression"])
    def forecaster(self, request):
        rng = np.random.default_rng(0)
        t = np.arange(48 * 8)
        series = 100.0 + 30.0 * np.sin(2 * np.pi * t / 48) + rng.normal(0.0, 3.0, len(t))
        config = TrainingConfig(epochs=2, batch_size=32, window_stride=6, patience=0, seed=0)
        levels = (0.1, 0.3, 0.5, 0.7, 0.9)
        if request.param == "tft":
            model = TFTForecaster(
                32, 8, quantile_levels=levels, d_model=8, num_heads=2, config=config
            )
        else:
            model = MLPQuantileForecaster(
                32, 8, quantile_levels=levels, hidden_size=16, config=config
            )
        return model.fit(series), series[-32:]

    def test_served_fan_is_monotone(self, forecaster):
        model, context = forecaster
        fc = model.predict(context)
        assert np.all(np.diff(fc.values, axis=0) >= 0)

    def test_crossed_heads_are_rearranged(self, forecaster, monkeypatch):
        model, context = forecaster
        plain = model.predict(context)
        monkeypatch.setattr(model.network, "fast_forward", _reversed_heads(model.network))
        crossed = model.predict(context)
        # Reversing the heads only permutes each step's values, and sorting
        # undoes any permutation: the fan served is the one served before.
        assert np.any(np.diff(plain.values, axis=0) > 0)
        np.testing.assert_array_equal(crossed.values, plain.values)

    def test_off_grid_levels_come_from_the_sorted_grid(self, forecaster, monkeypatch):
        model, context = forecaster
        monkeypatch.setattr(model.network, "fast_forward", _reversed_heads(model.network))
        fc = model.predict(context, levels=(0.2, 0.5, 0.8))
        assert np.all(np.diff(fc.values, axis=0) >= 0)
        np.testing.assert_array_equal(fc.point, model.predict(context).at(0.5))


class TestForecasterLifecycle:
    def test_predict_before_fit_raises(self):
        forecaster = SeasonalNaiveForecaster(horizon=4, season=10)
        with pytest.raises(RuntimeError):
            forecaster.predict(np.ones(10))
