"""Tests for telemetry-layer fault injection."""

import math

import numpy as np

from repro.faults import FaultSchedule, corrupt_series
from repro.faults.telemetry import TelemetryFaultInjector


class TestInjector:
    def test_clean_intervals_pass_through(self):
        injector = TelemetryFaultInjector(FaultSchedule.parse("nan@5"))
        assert injector.apply(123.4, 0) == 123.4
        assert injector.total_injected == 0

    def test_nan_and_drop_surface_as_nan(self):
        injector = TelemetryFaultInjector(FaultSchedule.parse("nan@0,drop@1"))
        assert math.isnan(injector.apply(100.0, 0))
        assert math.isnan(injector.apply(100.0, 1))
        assert injector.injected == {"nan": 1, "drop": 1}

    def test_inf(self):
        injector = TelemetryFaultInjector(FaultSchedule.parse("inf@0"))
        assert math.isinf(injector.apply(100.0, 0))

    def test_negative(self):
        injector = TelemetryFaultInjector(FaultSchedule.parse("negative@0"))
        assert injector.apply(100.0, 0) < 0

    def test_spike_multiplies_by_param(self):
        injector = TelemetryFaultInjector(FaultSchedule.parse("spike@0:8"))
        assert injector.apply(50.0, 0) == 400.0

    def test_spike_default_is_x10(self):
        injector = TelemetryFaultInjector(FaultSchedule.parse("spike@0"))
        assert injector.apply(50.0, 0) == 500.0

    def test_duplicate_replays_last_clean_value(self):
        injector = TelemetryFaultInjector(FaultSchedule.parse("duplicate@1"))
        injector.apply(100.0, 0)
        assert injector.apply(200.0, 1) == 100.0
        # The *clean* 200 is remembered, not the corrupted output.
        assert injector.apply(300.0, 2) == 300.0

    def test_duplicate_with_no_history_passes_through(self):
        injector = TelemetryFaultInjector(FaultSchedule.parse("duplicate@0"))
        assert injector.apply(100.0, 0) == 100.0

    def test_stacked_faults_compose_in_order(self):
        # Same interval: spike then... nan wins (kind order is
        # deterministic, so the composition is reproducible).
        injector = TelemetryFaultInjector(FaultSchedule.parse("spike@0:2,nan@0"))
        assert math.isnan(injector.apply(100.0, 0))
        assert injector.total_injected == 2

    def test_only_telemetry_kinds_apply(self):
        injector = TelemetryFaultInjector(
            FaultSchedule.parse("planner_error@0,node_crash@0")
        )
        assert injector.apply(100.0, 0) == 100.0
        assert injector.total_injected == 0


class TestCorruptSeries:
    def test_input_untouched_and_counts_returned(self):
        series = np.full(10, 100.0)
        corrupted, counts = corrupt_series(
            series, FaultSchedule.parse("nan@2,spike@5:3")
        )
        assert not np.isnan(series).any()
        assert np.isnan(corrupted[2])
        assert corrupted[5] == 300.0
        assert counts == {"nan": 1, "spike": 1}

    def test_no_faults_is_identity(self):
        series = np.arange(5, dtype=float)
        corrupted, counts = corrupt_series(series, FaultSchedule())
        assert np.array_equal(corrupted, series)
        assert counts == {}
