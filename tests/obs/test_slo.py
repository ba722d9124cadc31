"""SLO spec parsing, error-budget accounting, and burn-rate alerting."""

import pytest

from repro.obs import (
    AlertEngine,
    BurnRateRule,
    InMemorySink,
    MetricsRegistry,
    ModelHealthMonitor,
    SLO,
    SLOTracker,
    default_burn_rates,
    parse_slo,
    using_registry,
)


def window_record(end_index, violation_rate=0.0, steps=12, **extra):
    return {
        "window": end_index // steps,
        "end_index": end_index,
        "steps": steps,
        "violation_rate": violation_rate,
        **extra,
    }


class TestParseSlo:
    def test_rate_objective(self):
        slo = parse_slo("qos_violation_rate < 0.05 over 288")
        assert slo.kind == "rate"
        assert slo.metric == "violation_rate"  # friendly alias resolved
        assert slo.op == "<"
        assert slo.threshold == 0.05
        assert slo.window == 288
        assert slo.budget_rate == 0.05

    def test_good_rate_objective_inverts_budget(self):
        slo = parse_slo("coverage@0.9 >= 0.85 over 144")
        assert slo.kind == "rate"
        assert slo.level == 0.9
        assert slo.budget_rate == pytest.approx(0.15)
        assert slo.bad_rate(0.9) == pytest.approx(0.1)

    def test_latency_objective_from_quantile_suffix(self):
        slo = parse_slo("plan_latency_p99 < 0.5s")
        assert slo.kind == "latency"
        assert slo.metric == "runtime.step/plan"
        assert slo.quantile == 0.99
        assert slo.threshold == 0.5

    def test_latency_millisecond_unit(self):
        slo = parse_slo("step_latency_p90 < 250ms")
        assert slo.metric == "runtime.step"
        assert slo.quantile == 0.9
        assert slo.threshold == pytest.approx(0.25)

    def test_literal_span_path(self):
        slo = parse_slo("forecast/fit_p50 < 2s")
        assert slo.metric == "forecast/fit"
        assert slo.quantile == 0.5

    def test_default_window(self):
        assert parse_slo("qos_violation_rate < 0.1").window == 288

    @pytest.mark.parametrize(
        "bad", ["banana", "rate ~ 0.5", "x < ", "qos_violation_rate < 5 over 0"]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_slo(bad)

    def test_rate_threshold_must_be_a_fraction(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            parse_slo("qos_violation_rate < 5 over 288")

    def test_spec_round_trip_display(self):
        spec = "qos_violation_rate < 0.05 over 288"
        assert parse_slo(spec).spec == spec


class TestBurnRates:
    def test_default_ladder_scales_to_window(self):
        rules = default_burn_rates(288)
        by_severity = {r.severity: r for r in rules}
        assert by_severity["critical"].factor == 14.4
        assert by_severity["critical"].long_ticks == 12
        assert by_severity["warning"].long_ticks == 48

    def test_tiny_window_clamps_to_one_tick(self):
        for rule in default_burn_rates(4):
            assert rule.long_ticks >= 1
            assert rule.short_ticks >= 1

    def test_invalid_rule_rejected(self):
        with pytest.raises(ValueError):
            BurnRateRule(severity="x", factor=0.0, long_ticks=1, short_ticks=1)
        with pytest.raises(ValueError):
            BurnRateRule(severity="x", factor=1.0, long_ticks=0, short_ticks=1)


class TestSLOTracker:
    def make_tracker(self, spec="qos_violation_rate < 0.05 over 48"):
        engine = AlertEngine()
        return SLOTracker([spec], engine=engine), engine

    def test_healthy_run_consumes_no_budget(self):
        tracker, engine = self.make_tracker()
        for i in range(6):
            status = tracker.observe_window(window_record((i + 1) * 12))
        (entry,) = status
        assert entry["healthy"]
        assert entry["budget_consumed"] == 0.0
        assert entry["budget_remaining"] == 1.0
        assert engine.alerts == []

    def test_sustained_burn_fires_and_resolves(self):
        tracker, engine = self.make_tracker()
        # Burn hard: 50% violation rate against a 5% budget = 10x burn,
        # above the warning factor (6x) once both sub-windows see it.
        status = None
        for i in range(4):
            status = tracker.observe_window(
                window_record((i + 1) * 12, violation_rate=0.5)
            )
        (entry,) = status
        assert not entry["healthy"]
        assert entry["burn"]["warning"]["firing"]
        assert any(a.rule.name.startswith("slo-burn:") for a in engine.alerts)
        fired = len(engine.alerts)

        # Still burning: once-per-episode, no new alert.
        tracker.observe_window(window_record(60, violation_rate=0.5))
        assert len(engine.alerts) == fired

        # Recover for long enough that the sub-windows drain.
        status = None
        for i in range(6):
            status = tracker.observe_window(window_record(72 + i * 12))
        (entry,) = status
        assert entry["healthy"]
        assert not entry["burn"]["warning"]["firing"]

    def test_single_bad_window_does_not_page(self):
        # Multi-window confirmation: one bad window inside an otherwise
        # clean stream must not fire the slow (warning) burn alert.
        tracker, engine = self.make_tracker()
        tracker.observe_window(window_record(12))
        tracker.observe_window(window_record(24, violation_rate=0.3))
        status = tracker.observe_window(window_record(36))
        (entry,) = status
        assert not entry["burn"]["warning"]["firing"]

    def test_budget_consumed_accounting(self):
        tracker, _ = self.make_tracker()
        # Budget = 0.05 * 48 = 2.4 bad ticks; 0.1 * 12 = 1.2 bad ticks.
        status = tracker.observe_window(window_record(12, violation_rate=0.1))
        (entry,) = status
        assert entry["bad_ticks"] == pytest.approx(1.2)
        assert entry["budget_consumed"] == pytest.approx(0.5)
        assert entry["budget_remaining"] == pytest.approx(0.5)

    def test_ledger_evicts_outside_window(self):
        tracker, _ = self.make_tracker()
        tracker.observe_window(window_record(12, violation_rate=1.0))
        # 5 windows later the bad window has left the 48-tick SLO window.
        for i in range(5):
            status = tracker.observe_window(window_record(24 + i * 12))
        (entry,) = status
        assert entry["bad_ticks"] == 0.0

    def test_good_rate_objective(self):
        engine = AlertEngine()
        tracker = SLOTracker(["coverage@0.9 >= 0.85 over 48"], engine=engine)
        status = tracker.observe_window(
            window_record(12, coverage={"0.9": 0.75})
        )
        (entry,) = status
        # bad rate = 1 - 0.75 = 0.25 over a 0.15 budget
        assert entry["bad_ticks"] == pytest.approx(0.25 * 12)

    def test_latency_objective_reads_span_histogram(self):
        registry = MetricsRegistry(sinks=[InMemorySink()])
        engine = AlertEngine()
        tracker = SLOTracker(["plan_latency_p99 < 0.5s"], engine=engine)
        with using_registry(registry):
            registry.histogram("span/runtime.step/plan").observe(0.001)
            status = tracker.observe_window(window_record(12))
        (entry,) = status
        assert entry["slo_kind"] == "latency"
        assert entry["value_s"] == pytest.approx(0.001)
        assert entry["healthy"]

    def test_latency_breach_fires_and_recovers(self):
        registry = MetricsRegistry(sinks=[InMemorySink()])
        engine = AlertEngine()
        tracker = SLOTracker(["plan_latency_p99 < 0.5s"], engine=engine)
        with using_registry(registry):
            hist = registry.histogram("span/runtime.step/plan")
            hist.observe(2.0)
            status = tracker.observe_window(window_record(12))
            assert not status[0]["healthy"]
            assert len(engine.alerts) == 1
            # Fast observations drown out the slow one; p99 recovers.
            for _ in range(500):
                hist.observe(0.001)
            status = tracker.observe_window(window_record(24))
            assert status[0]["healthy"]

    def test_latency_without_data_is_healthy(self):
        tracker, engine = self.make_tracker("plan_latency_p99 < 0.5s")
        with using_registry(MetricsRegistry()):
            (entry,) = tracker.observe_window(window_record(12))
        assert entry["value_s"] is None
        assert entry["healthy"]

    def test_emits_slo_events_and_budget_gauge(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        tracker, _ = self.make_tracker()
        with using_registry(registry):
            tracker.observe_window(window_record(12, violation_rate=0.1))
        kinds = {r["kind"] for r in sink.records}
        assert "slo" in kinds
        snap = registry.snapshot()
        key = [k for k in snap["gauges"] if k.startswith("slo.budget_consumed")]
        assert key and snap["gauges"][key[0]] == pytest.approx(0.5)

    def test_accepts_slo_instances(self):
        slo = SLO(
            metric="violation_rate", op="<", threshold=0.1, window=24,
            kind="rate",
        )
        tracker = SLOTracker([slo])
        assert tracker.slos[0].spec == "violation_rate < 0.1 over 24"


class TestStatePersistence:
    def test_state_round_trip(self):
        tracker, _ = SLOTracker(
            ["qos_violation_rate < 0.05 over 48"], engine=AlertEngine()
        ), None
        for i in range(3):
            tracker.observe_window(window_record((i + 1) * 12, violation_rate=0.2))
        state = tracker.state_dict()

        restored = SLOTracker(
            ["qos_violation_rate < 0.05 over 48"], engine=AlertEngine()
        )
        restored.load_state_dict(state)
        assert restored.windows_observed == tracker.windows_observed
        assert restored.status() == tracker.status()
        # Continuing from restored state matches continuing the original.
        a = tracker.observe_window(window_record(48, violation_rate=0.2))
        b = restored.observe_window(window_record(48, violation_rate=0.2))
        assert a[0]["bad_ticks"] == b[0]["bad_ticks"]
        assert a[0]["budget_consumed"] == b[0]["budget_consumed"]

    def test_mismatched_objectives_rejected(self):
        tracker = SLOTracker(["qos_violation_rate < 0.05 over 48"])
        tracker.observe_window(window_record(12))
        state = tracker.state_dict()
        other = SLOTracker(["qos_violation_rate < 0.1 over 24"])
        with pytest.raises(ValueError, match="do not match"):
            other.load_state_dict(state)


class TestMonitorIntegration:
    def test_monitor_feeds_tracker_on_window_close(self):
        engine = AlertEngine()
        tracker = SLOTracker(
            ["qos_violation_rate < 0.05 over 48"], engine=engine
        )
        monitor = ModelHealthMonitor(window=4, alerts=engine, slos=tracker)
        levels = (0.1, 0.5, 0.9)
        for t in range(8):
            monitor.observe(
                levels, (90.0, 100.0, 110.0), 100.0, time_index=t,
                nodes=1, threshold=50.0,  # violated every tick
            )
        assert tracker.windows_observed == 2
        (entry,) = tracker.status()
        assert entry["bad_ticks"] > 0

    def test_monitor_state_round_trips_slo_ledger(self):
        def build():
            engine = AlertEngine()
            tracker = SLOTracker(
                ["qos_violation_rate < 0.05 over 48"], engine=engine
            )
            return ModelHealthMonitor(window=4, alerts=engine, slos=tracker)

        monitor = build()
        levels = (0.1, 0.5, 0.9)
        for t in range(8):
            monitor.observe(levels, (90.0, 100.0, 110.0), 95.0, time_index=t)
        state = monitor.state_dict()
        assert state["slos"] is not None

        restored = build()
        restored.load_state_dict(state)
        assert restored.slos.windows_observed == monitor.slos.windows_observed
        assert restored.slos.status() == monitor.slos.status()

    def test_monitor_without_tracker_state_is_none(self):
        monitor = ModelHealthMonitor(window=4)
        state = monitor.state_dict()
        assert state["slos"] is None
        ModelHealthMonitor(window=4).load_state_dict(state)
        # The key is part of the format: only checkpoints older than this
        # build's version lack it, and those are rejected at the door.
        del state["slos"]
        with pytest.raises(KeyError, match="slos"):
            ModelHealthMonitor(window=4).load_state_dict(state)
