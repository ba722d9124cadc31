"""Tests for the output distributions."""

import numpy as np
import pytest
from scipy import special, stats

from repro.distributions import Empirical, Gaussian, StudentT
from repro.distributions.gaussian import ndtri


class TestNdtriIsScipys:
    """The Cephes port is ``scipy.special.ndtri`` bit for bit; scipy is the oracle."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        yield
        ndtri.cache_clear()  # the large inputs below are not worth keeping

    @staticmethod
    def assert_bitwise(levels):
        ours = ndtri(tuple(np.asarray(levels, dtype=np.float64).tolist()))
        reference = special.ndtri(np.asarray(levels, dtype=np.float64))
        np.testing.assert_array_equal(np.isnan(ours), np.isnan(reference))
        np.testing.assert_array_equal(ours, reference)

    def test_dense_grid(self):
        self.assert_bitwise(np.linspace(1e-6, 1.0 - 1e-6, 100_001))

    def test_uniforms(self):
        self.assert_bitwise(np.random.default_rng(28).uniform(size=100_000))

    def test_deep_tails_on_both_sides(self):
        tail = np.logspace(-300, np.log10(0.2), 20_000)
        self.assert_bitwise(tail)
        self.assert_bitwise(1.0 - tail)
        self.assert_bitwise([5e-324, 2.2e-308, 1e-16, 1.0 - 2.0**-53, 1.0 - 1e-16])

    def test_policy_levels_and_branch_edges(self):
        e2 = np.exp(-2.0)
        self.assert_bitwise([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999])
        self.assert_bitwise(np.nextafter(np.array([e2, e2, 1 - e2, 1 - e2]), [0, 1, 0, 1]))
        self.assert_bitwise([np.exp(-32.0), np.nextafter(np.exp(-32.0), 1.0)])

    def test_edges_are_scipys(self):
        edges = [0.0, -0.0, 1.0, -1e-300, -1.0, 1.0 + 2.0**-52, 2.0, np.inf, -np.inf, np.nan]
        self.assert_bitwise(edges)
        assert ndtri((0.0, 1.0))[0] == -np.inf and ndtri((0.0, 1.0))[1] == np.inf
        assert np.isnan(ndtri((-0.5, 1.5, np.nan))).all()

    def test_the_memo_is_read_only_and_bounded(self):
        with pytest.raises(ValueError):
            ndtri((0.1, 0.9))[0] = 0.0
        bound = ndtri.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 10):
            ndtri((0.5 + i * 1e-6,))
        assert ndtri.cache_info().currsize <= bound

    def test_mutating_a_returned_fan_does_not_change_the_next(self):
        d = Gaussian(np.zeros(4), np.ones(4))
        levels = [0.1, 0.5, 0.9]
        first = d.quantiles(levels)
        expected = first.copy()
        first[:] = 123.0
        np.testing.assert_array_equal(d.quantiles(levels), expected)
        scalar = Gaussian(0.0, 1.0)
        fan = scalar.quantiles(levels)
        fan[:] = 0.0
        np.testing.assert_array_equal(scalar.quantiles(levels), special.ndtri(levels))


class TestGaussian:
    def test_mean_std(self):
        d = Gaussian(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        np.testing.assert_array_equal(d.mean(), [1.0, 2.0])
        np.testing.assert_array_equal(d.std(), [0.5, 1.5])

    def test_quantile_matches_scipy(self):
        d = Gaussian(np.array([3.0]), np.array([2.0]))
        assert d.quantile(0.9)[0] == pytest.approx(stats.norm.ppf(0.9, 3.0, 2.0))

    def test_median_is_mean(self):
        d = Gaussian(np.array([5.0]), np.array([1.0]))
        assert d.quantile(0.5)[0] == pytest.approx(5.0)

    def test_sampling_moments(self):
        d = Gaussian(np.array([2.0]), np.array([3.0]))
        samples = d.sample(20000, np.random.default_rng(0))
        assert samples.shape == (20000, 1)
        assert samples.mean() == pytest.approx(2.0, abs=0.1)
        assert samples.std() == pytest.approx(3.0, abs=0.1)

    def test_log_prob(self):
        d = Gaussian(np.array([0.0]), np.array([1.0]))
        assert d.log_prob(np.array([0.0]))[0] == pytest.approx(stats.norm.logpdf(0.0))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            Gaussian(np.array([0.0]), np.array([0.0]))

    def test_quantiles_stacks_levels(self):
        d = Gaussian(np.zeros(3), np.ones(3))
        out = d.quantiles([0.1, 0.5, 0.9])
        assert out.shape == (3, 3)
        assert np.all(np.diff(out, axis=0) > 0)


class TestStudentT:
    def test_quantile_matches_scipy(self):
        d = StudentT(np.array([1.0]), np.array([2.0]), 5.0)
        assert d.quantile(0.8)[0] == pytest.approx(stats.t.ppf(0.8, 5, 1.0, 2.0))

    def test_heavier_tails_than_gaussian(self):
        t_dist = StudentT(np.array([0.0]), np.array([1.0]), 3.0)
        g_dist = Gaussian(np.array([0.0]), np.array([1.0]))
        assert t_dist.quantile(0.99)[0] > g_dist.quantile(0.99)[0]

    def test_std_finite_df(self):
        d = StudentT(np.array([0.0]), np.array([2.0]), 4.0)
        assert d.std()[0] == pytest.approx(2.0 * np.sqrt(4.0 / 2.0))

    def test_std_fallback_low_df(self):
        d = StudentT(np.array([0.0]), np.array([2.0]), 1.5)
        assert d.std()[0] == pytest.approx(2.0)  # falls back to scale

    def test_sampling_location(self):
        d = StudentT(np.array([10.0]), np.array([1.0]), 8.0)
        samples = d.sample(20000, np.random.default_rng(1))
        assert np.median(samples) == pytest.approx(10.0, abs=0.1)

    def test_log_prob_matches_scipy(self):
        d = StudentT(np.array([1.0]), np.array([0.5]), 6.0)
        assert d.log_prob(np.array([2.0]))[0] == pytest.approx(
            stats.t.logpdf(2.0, 6.0, 1.0, 0.5)
        )

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StudentT(np.array([0.0]), np.array([-1.0]), 3.0)
        with pytest.raises(ValueError):
            StudentT(np.array([0.0]), np.array([1.0]), 0.0)


class TestEmpirical:
    def test_quantile_interpolates_samples(self):
        d = Empirical(np.arange(101.0)[:, None])
        assert d.quantile(0.5)[0] == pytest.approx(50.0)
        assert d.quantile(0.9)[0] == pytest.approx(90.0)

    def test_mean_std(self):
        samples = np.random.default_rng(2).normal(5.0, 2.0, size=(50000, 1))
        d = Empirical(samples)
        assert d.mean()[0] == pytest.approx(5.0, abs=0.05)
        assert d.std()[0] == pytest.approx(2.0, abs=0.05)

    def test_batched_quantiles(self):
        samples = np.stack([np.arange(11.0), np.arange(11.0) * 2], axis=1)
        d = Empirical(samples)
        np.testing.assert_allclose(d.quantile(0.5), [5.0, 10.0])

    def test_resampling(self):
        d = Empirical(np.array([[1.0], [2.0], [3.0]]))
        out = d.sample(100, np.random.default_rng(3))
        assert set(np.unique(out)) <= {1.0, 2.0, 3.0}

    def test_log_prob_peaks_at_mode(self):
        samples = np.random.default_rng(4).normal(0.0, 1.0, size=(5000, 1))
        d = Empirical(samples)
        assert d.log_prob(np.array([0.0]))[0] > d.log_prob(np.array([3.0]))[0]

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            Empirical(np.array([[1.0]]))
