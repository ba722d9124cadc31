"""Parity of the distribution kernels with their ``scipy.stats`` references.

``Distribution.quantiles`` and the Gaussian-fan forecasters compute every
level in one broadcast call.  The per-level ``scipy.stats`` /
``np.quantile`` loops they replaced live on here as the reference: the
arithmetic order is unchanged, so the results must be equal, not close.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from repro.distributions import Empirical, Gaussian
from repro.forecast import ARIMAForecaster, QuantileForecast

HORIZON = 6

levels = st.lists(
    st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=9, unique=True
)
locations = arrays(np.float64, st.just(HORIZON), elements=st.floats(-1e6, 1e6))
scales = arrays(np.float64, st.just(HORIZON), elements=st.floats(1e-3, 1e4))


class TestQuantilesMatchPerLevelReference:
    @settings(max_examples=100, deadline=None)
    @given(locations, scales, levels)
    def test_gaussian(self, mu, sigma, levels):
        reference = np.stack([stats.norm.ppf(tau, loc=mu, scale=sigma) for tau in levels])
        distribution = Gaussian(mu, sigma)
        np.testing.assert_array_equal(distribution.quantiles(levels), reference)
        np.testing.assert_array_equal(distribution.quantile(levels[0]), reference[0])

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.just(HORIZON)),
            elements=st.floats(-1e6, 1e6),
        ),
        levels,
    )
    def test_empirical(self, samples, levels):
        reference = np.stack([np.quantile(samples, tau, axis=0) for tau in levels])
        np.testing.assert_array_equal(Empirical(samples).quantiles(levels), reference)

    def test_batch_shapes_broadcast_behind_the_level_axis(self):
        mu = np.arange(6.0).reshape(2, 3)
        assert Gaussian(mu, 2.0).quantiles([0.1, 0.9]).shape == (2, 2, 3)
        assert Gaussian(1.0, 2.0).quantiles([0.1, 0.5, 0.9]).shape == (3,)


class TestLogProbMatchesScipyStats:
    """The closed form that keeps ``scipy.stats`` out of ``import repro``.

    Tolerance set beforehand from the arithmetic: the Gaussian form is
    scipy's own expression.
    """

    @settings(max_examples=100, deadline=None)
    @given(locations, scales, locations)
    def test_gaussian(self, mu, sigma, value):
        np.testing.assert_allclose(
            Gaussian(mu, sigma).log_prob(value),
            stats.norm.logpdf(value, loc=mu, scale=sigma),
            rtol=1e-12,
            atol=1e-12,
        )


class TestGaussianFanForecastersMatchPerLevelReference:
    def test_arima(self):
        rng = np.random.default_rng(0)
        values = 500.0 + np.cumsum(rng.normal(0.0, 5.0, 300))
        model = ARIMAForecaster(horizon=HORIZON).fit(values)
        fan = {}
        undifference = model._undifference

        def spy(context, forecasts):
            fan["point"], fan["spread"] = undifference(context, forecasts)
            return fan["point"], fan["spread"]

        model._undifference = spy
        forecast = model.predict(values[-100:], levels=(0.05, 0.5, 0.9, 0.999))
        reference = np.stack(
            [fan["point"] + stats.norm.ppf(tau) * fan["spread"] for tau in forecast.levels]
        )
        np.testing.assert_array_equal(forecast.values, reference)


def reference_at(forecast: QuantileForecast, tau: float) -> np.ndarray:
    """``QuantileForecast.at`` as written with ``np.isclose``."""
    exact = np.flatnonzero(np.isclose(forecast.levels, tau))
    if exact.size:
        return forecast.values[exact[0]]
    if tau < forecast.levels[0] or tau > forecast.levels[-1]:
        raise ValueError("outside grid")
    upper = int(np.searchsorted(forecast.levels, tau))
    lower = upper - 1
    weight = (tau - forecast.levels[lower]) / (forecast.levels[upper] - forecast.levels[lower])
    return (1.0 - weight) * forecast.values[lower] + weight * forecast.values[upper]


GRID = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99])


class TestAtMatchesIscloseReference:
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(np.float64, st.just((len(GRID), 4)), elements=st.floats(0.0, 1e4)),
        st.one_of(
            st.floats(0.01, 0.999),
            st.sampled_from([float("inf"), float("-inf"), 0.0, 1.0]),
            # on-grid, and within / just beyond the tolerance of a grid level
            st.builds(
                lambda level, nudge: float(level + nudge),
                st.sampled_from(GRID),
                st.sampled_from([0.0, 1e-9, -1e-9, 5e-6, -5e-6, 2e-5, -2e-5]),
            ),
        ),
    )
    def test_on_grid_interpolated_and_out_of_range(self, values, tau):
        forecast = QuantileForecast(levels=GRID, values=values)
        try:
            expected = reference_at(forecast, tau)
        except ValueError:
            with pytest.raises(ValueError, match="outside forecast grid"):
                forecast.at(tau)
        else:
            np.testing.assert_array_equal(forecast.at(tau), expected)
