"""Tests for Trace containers, aggregation, scalers, and CSV loaders."""

import numpy as np
import pytest

from repro.traces import StandardScaler, Trace, load_machine_usage_csv, load_task_usage_csv
from repro.traces.dataset import aggregate


class TestTrace:
    def test_basic_properties(self):
        trace = Trace("t", np.arange(144.0))
        assert len(trace) == 144
        assert trace.duration_hours == pytest.approx(24.0)

    def test_split_chronological(self):
        trace = Trace("t", np.arange(100.0))
        train, test = trace.split(0.2)
        assert len(train) == 80
        assert len(test) == 20
        np.testing.assert_array_equal(test.values, np.arange(80.0, 100.0))

    def test_split_preserves_metadata(self):
        trace = Trace("t", np.arange(100.0), interval_seconds=300, metric="memory")
        train, _ = trace.split(0.5)
        assert train.interval_seconds == 300
        assert train.metric == "memory"

    def test_slice(self):
        trace = Trace("t", np.arange(10.0))
        np.testing.assert_array_equal(trace.slice(2, 5).values, [2.0, 3.0, 4.0])

    def test_summary_keys(self):
        summary = Trace("t", np.arange(100.0)).summary()
        assert set(summary) == {"mean", "std", "min", "max", "p50", "p95", "p99"}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trace("t", np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Trace("t", np.ones((3, 3)))

    def test_split_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Trace("t", np.arange(10.0)).split(0.0)


class TestAggregate:
    def test_mean_binning(self):
        ts = np.array([0.0, 100.0, 700.0])
        vs = np.array([10.0, 30.0, 50.0])
        out = aggregate(ts, vs, interval_seconds=600)
        np.testing.assert_allclose(out, [20.0, 50.0])

    def test_max_reducer(self):
        ts = np.array([0.0, 100.0])
        vs = np.array([10.0, 30.0])
        np.testing.assert_allclose(aggregate(ts, vs, 600, reducer="max"), [30.0])

    def test_sum_reducer(self):
        ts = np.array([0.0, 100.0])
        vs = np.array([10.0, 30.0])
        np.testing.assert_allclose(aggregate(ts, vs, 600, reducer="sum"), [40.0])

    def test_gap_forward_filled(self):
        ts = np.array([0.0, 1800.0])  # bins 0 and 3; bins 1, 2 empty
        vs = np.array([10.0, 40.0])
        out = aggregate(ts, vs, interval_seconds=600)
        np.testing.assert_allclose(out, [10.0, 10.0, 10.0, 40.0])

    def test_unsorted_input(self):
        ts = np.array([700.0, 0.0, 100.0])
        vs = np.array([50.0, 10.0, 30.0])
        np.testing.assert_allclose(aggregate(ts, vs, 600), [20.0, 50.0])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            aggregate(np.array([0.0]), np.array([1.0, 2.0]))

    def test_rejects_unknown_reducer(self):
        with pytest.raises(ValueError):
            aggregate(np.array([0.0]), np.array([1.0]), reducer="median")


class TestStandardScaler:
    def test_roundtrip(self):
        scaler = StandardScaler()
        data = np.random.default_rng(0).normal(50.0, 10.0, size=200)
        normalised = scaler.fit_transform(data)
        assert abs(normalised.mean()) < 1e-10
        np.testing.assert_allclose(scaler.inverse_transform(normalised), data)

    def test_constant_series_safe(self):
        scaler = StandardScaler()
        out = scaler.fit_transform(np.full(10, 7.0))
        assert np.all(np.isfinite(out))

    def test_use_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones(3))


class TestLoaders:
    def test_alibaba_loader(self, tmp_path):
        path = tmp_path / "machine_usage.csv"
        path.write_text(
            "m_1,0,40,60,,,,,10\n"
            "m_2,0,60,60,,,,,10\n"
            "m_1,600,80,60,,,,,10\n"
        )
        trace = load_machine_usage_csv(path)
        np.testing.assert_allclose(trace.values, [50.0, 80.0])

    def test_alibaba_loader_machine_filter(self, tmp_path):
        path = tmp_path / "machine_usage.csv"
        path.write_text("m_1,0,40,60\nm_2,0,60,60\n")
        trace = load_machine_usage_csv(path, machine_ids={"m_1"})
        np.testing.assert_allclose(trace.values, [40.0])

    def test_alibaba_loader_empty_raises(self, tmp_path):
        path = tmp_path / "machine_usage.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_machine_usage_csv(path)

    def test_google_loader_sums_tasks(self, tmp_path):
        path = tmp_path / "task_usage.csv"
        # start_us, end_us, job, task, machine, cpu
        path.write_text(
            "0,1,j1,0,m,0.25\n"
            "0,1,j1,1,m,0.50\n"
            "600000000,1,j1,0,m,0.30\n"
        )
        trace = load_task_usage_csv(path)
        np.testing.assert_allclose(trace.values, [0.75, 0.30])

    def test_google_loader_task_filter(self, tmp_path):
        path = tmp_path / "task_usage.csv"
        path.write_text("0,1,j1,0,m,0.25\n0,1,j1,1,m,0.50\n")
        trace = load_task_usage_csv(path, task_ids={"j1:0"})
        np.testing.assert_allclose(trace.values, [0.25])
