"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.traces import STEPS_PER_DAY, alibaba_like_trace, google_like_trace
from repro.traces.synthetic import (
    BurstComponent,
    NoiseComponent,
    RegimeSwitchComponent,
    SeasonalComponent,
    SpikeComponent,
    SyntheticWorkload,
    TrendComponent,
)


def autocorrelation(series: np.ndarray, lag: int) -> float:
    centered = series - series.mean()
    return float(
        (centered[:-lag] * centered[lag:]).sum()
        / np.sqrt((centered[:-lag] ** 2).sum() * (centered[lag:] ** 2).sum())
    )


class TestComponents:
    def test_seasonal_periodicity(self):
        comp = SeasonalComponent(period=10, harmonics={1: 2.0})
        t = np.arange(30)
        out = comp.generate(t, np.random.default_rng(0))
        np.testing.assert_allclose(out[:10], out[10:20], atol=1e-12)

    def test_seasonal_amplitude(self):
        comp = SeasonalComponent(period=100, harmonics={1: 3.0})
        out = comp.generate(np.arange(100), np.random.default_rng(0))
        assert out.max() == pytest.approx(3.0, abs=0.01)

    def test_trend_slope(self):
        comp = TrendComponent(slope_per_step=0.5)
        out = comp.generate(np.arange(10), np.random.default_rng(0))
        np.testing.assert_allclose(np.diff(out), 0.5)

    def test_trend_walk_is_integrated(self):
        comp = TrendComponent(walk_std=1.0)
        out = comp.generate(np.arange(5000), np.random.default_rng(1))
        # A random walk's spread grows; late values drift from early ones.
        assert np.abs(out[-500:]).mean() > np.abs(out[:10]).mean()

    def test_noise_zero_mean(self):
        comp = NoiseComponent(std=2.0)
        out = comp.generate(np.arange(50000), np.random.default_rng(2))
        assert abs(out.mean()) < 0.05
        assert out.std() == pytest.approx(2.0, abs=0.05)

    def test_heteroscedastic_noise_varies(self):
        comp = NoiseComponent(std=2.0, volatility_period=1000, volatility_strength=0.9)
        out = comp.generate(np.arange(10000), np.random.default_rng(3))
        # Std in the calm phase differs from the loud phase.
        loud = out[200:300].std()
        calm = out[700:800].std()
        assert loud > calm

    def test_bursts_decay(self):
        comp = BurstComponent(rate_per_step=1.0, magnitude=10.0, decay=0.5)
        out = comp.generate(np.arange(100), np.random.default_rng(4))
        assert np.all(out >= 0)

    def test_bursts_sparse_at_low_rate(self):
        comp = BurstComponent(rate_per_step=0.001, magnitude=10.0)
        out = comp.generate(np.arange(1000), np.random.default_rng(5))
        assert (out > 0.01).mean() < 0.2

    def test_spikes_are_isolated(self):
        comp = SpikeComponent(rate_per_step=0.01, magnitude=100.0)
        out = comp.generate(np.arange(10000), np.random.default_rng(6))
        assert 0.0 < (out > 0).mean() < 0.05

    def test_regime_switch_two_levels(self):
        comp = RegimeSwitchComponent(switch_probability=0.05, level_high=7.0)
        out = comp.generate(np.arange(5000), np.random.default_rng(7))
        assert set(np.unique(out)) == {0.0, 7.0}
        # Both regimes visited
        assert 0.1 < (out == 7.0).mean() < 0.9


class TestSyntheticWorkload:
    def test_reproducible(self):
        model = SyntheticWorkload(
            base_level=10.0, components=[NoiseComponent(std=1.0)]
        )
        a = model.generate(100, seed=42)
        b = model.generate(100, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        model = SyntheticWorkload(base_level=10.0, components=[NoiseComponent(std=1.0)])
        assert not np.allclose(model.generate(100, seed=1), model.generate(100, seed=2))

    def test_floor_enforced(self):
        model = SyntheticWorkload(
            base_level=0.0, components=[NoiseComponent(std=5.0)], floor=0.0
        )
        assert model.generate(1000, seed=0).min() >= 0.0

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            SyntheticWorkload(base_level=1.0).generate(0)


class TestPresets:
    def test_alibaba_trace_shape(self):
        trace = alibaba_like_trace(num_steps=1000, seed=0)
        assert len(trace) == 1000
        assert trace.metric == "cpu"
        assert trace.interval_seconds == 600

    def test_alibaba_diurnal_cycle(self):
        trace = alibaba_like_trace(num_steps=STEPS_PER_DAY * 14, seed=1)
        # Autocorrelation at one day's lag should be strongly positive.
        assert autocorrelation(trace.values, STEPS_PER_DAY) > 0.3

    def test_alibaba_metrics(self):
        for metric in ("cpu", "memory", "disk"):
            trace = alibaba_like_trace(num_steps=500, seed=0, metric=metric)
            assert trace.metric == metric
            assert np.all(trace.values >= 0)

    def test_alibaba_rejects_unknown_metric(self):
        import pytest

        with pytest.raises(ValueError):
            alibaba_like_trace(num_steps=100, metric="gpu")

    def test_google_noisier_than_alibaba(self):
        """Table I's premise: the Google trace is harder to forecast.

        Compare the relative one-step variability of both presets.
        """
        alibaba = alibaba_like_trace(num_steps=STEPS_PER_DAY * 14, seed=2)
        google = google_like_trace(num_steps=STEPS_PER_DAY * 14, seed=2)
        alibaba_rough = np.abs(np.diff(alibaba.values)).mean() / alibaba.values.mean()
        google_rough = np.abs(np.diff(google.values)).mean() / google.values.mean()
        assert google_rough > alibaba_rough

    def test_google_regime_switches_present(self):
        trace = google_like_trace(num_steps=STEPS_PER_DAY * 28, seed=3)
        # Long-window rolling mean should shift materially between windows.
        window = STEPS_PER_DAY
        means = [
            trace.values[i : i + window].mean()
            for i in range(0, len(trace.values) - window, window)
        ]
        assert max(means) - min(means) > 0.1 * trace.values.mean()

    def test_aggregate_scale_spans_many_nodes(self):
        """Plans must span tens of nodes for quantile choices to matter."""
        trace = alibaba_like_trace(num_steps=1000, seed=0)
        assert trace.values.mean() / 60.0 > 10  # >10 nodes at theta=60
