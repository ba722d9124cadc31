"""Eq. 8 pinned bit for bit against the per-level loop it replaced.

``quantile_uncertainty`` scores the whole ``(L, H)`` fan in one
expression; a plan's ``metadata["uncertainty"]`` is checkpointed byte
for byte, so the vector form must reproduce the loop's sum exactly -
ties with the median and single-step horizons (where a pairwise sum
over levels would move the last bit) included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import quantile_uncertainty
from repro.forecast import QuantileForecast


def reference_uncertainty(forecast: QuantileForecast) -> np.ndarray:
    """Eq. 8 one level at a time, summed in grid order from zero."""
    median = forecast.at(0.5)
    total = np.zeros(forecast.horizon)
    for i, tau in enumerate(forecast.levels):
        values = forecast.values[i]
        indicator = (values < median).astype(np.float64)
        total += (tau - indicator) * (values - median)
    return total


@st.composite
def grids(draw, lengths=st.integers(1, 15), horizons=st.integers(1, 80)):
    """A valid grid spanning 0.5 (on it or interpolated) and its values:
    continuous, small integers (many ties), or continuous with some rows
    copying the median row in places; sorted across levels or not."""
    length = draw(lengths)
    on_grid = length == 1 or draw(st.booleans())
    if on_grid:
        below = draw(st.integers(0, length - 1))
        above = length - 1 - below
    else:
        below = draw(st.integers(1, length - 1))
        above = length - below
    low = draw(st.lists(st.floats(1e-3, 0.5, exclude_max=True),
                        min_size=below, max_size=below, unique=True))
    high = draw(st.lists(st.floats(0.5, 0.999, exclude_min=True),
                         min_size=above, max_size=above, unique=True))
    levels = sorted(low) + ([0.5] if on_grid else []) + sorted(high)

    horizon = draw(horizons)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["continuous", "integers", "copied"]))
    if mode == "integers":
        values = rng.integers(0, 4, size=(length, horizon)).astype(np.float64)
    else:
        values = rng.normal(draw(st.floats(-100.0, 1000.0)), draw(st.floats(1e-3, 500.0)),
                            size=(length, horizon))
        if mode == "copied" and on_grid:
            rows = rng.random(length) < 0.5
            mask = rng.random(horizon) < 0.5
            values[np.ix_(rows, mask)] = values[below, mask]
    if draw(st.booleans()):
        values.sort(axis=0)
    return QuantileForecast(levels=np.array(levels), values=values)


def assert_matches_the_loop(forecast):
    got = quantile_uncertainty(forecast)
    want = reference_uncertainty(forecast)
    assert got.dtype == np.float64
    assert got.shape == (forecast.horizon,)
    assert got.flags["C_CONTIGUOUS"]
    assert got.base is None  # owns its data: a retained plan pins no (L, H) buffer
    assert got.tobytes() == want.tobytes()


class TestQuantileUncertaintyMatchesTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(grids())
    def test_any_grid(self, forecast):
        assert_matches_the_loop(forecast)

    @settings(max_examples=300, deadline=None)
    @given(grids(lengths=st.integers(8, 15), horizons=st.just(1)))
    def test_one_step_horizon_on_a_long_grid(self, forecast):
        # numpy pairwise-sums a contiguous axis: terms.sum(axis=0) differs
        # from the loop's running sum here, the grid-order sum does not.
        assert_matches_the_loop(forecast)

    def test_all_quantiles_on_the_median_score_zero(self):
        forecast = QuantileForecast(levels=[0.1, 0.5, 0.9], values=np.full((3, 4), 7.0))
        assert quantile_uncertainty(forecast).tobytes() == np.zeros(4).tobytes()
