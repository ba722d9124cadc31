"""SLOs as alert rules: parsing, compilation, error budgets, burn alerts."""

import time

import pytest

from repro.obs import AlertEngine, MetricsRegistry, ModelHealthMonitor, SLOTracker, using_registry
from repro.obs.alerts import AlertRule, parse_slo
from repro.obs.sinks import InMemorySink

GRAMMAR = "'<metric>[@level] <op> <number>[ms|s] [for N] [over T]'"


def window_record(end_index, violation_rate=0.0, steps=12, **extra):
    return {
        "window": end_index // steps,
        "end_index": end_index,
        "steps": steps,
        "violation_rate": violation_rate,
        **extra,
    }


def feed(tracker, record):
    """What the monitor does at a window close: evaluate, then report."""
    tracker.engine.evaluate(record)
    return tracker.observe_window(record)


def by_severity(spec):
    return {rule.severity: rule for rule in parse_slo(spec)}


class TestParseSlo:
    def test_rate_objective(self):
        spec = "qos_violation_rate < 0.05 over 288"
        rules = by_severity(spec)
        assert set(rules) == {"critical", "warning"}
        for severity, factor in (("critical", 14.4), ("warning", 6.0)):
            rule = rules[severity]
            assert rule.name == f"slo-burn:{spec}:{severity}"
            assert rule.metric == "violation_rate"  # friendly alias resolved
            assert rule.op == ">="
            assert rule.threshold == factor * 0.05

    def test_good_rate_objective_inverts_budget(self):
        rules = by_severity("coverage@0.9 >= 0.85 over 144")
        warning = rules["warning"]
        assert warning.metric == "coverage" and warning.level == 0.9
        # bad rate 1 - coverage >= 6 x 0.15  <=>  coverage <= 0.1
        assert warning.op == "<="
        assert warning.threshold == pytest.approx(0.1)

    def test_latency_objective_from_quantile_suffix(self):
        (rule,) = parse_slo("plan_latency_p99 < 0.5s")
        assert rule.name == "slo-latency:plan_latency_p99 < 0.5s"
        assert rule.metric == "span/runtime.step/plan"
        assert rule.level == 0.99
        # The objective states the good condition; the rule its breach.
        assert (rule.op, rule.threshold, rule.over) == (">=", 0.5, 0)

    def test_latency_millisecond_unit(self):
        (rule,) = parse_slo("step_latency_p90 < 250ms")
        assert rule.metric == "span/runtime.step"
        assert rule.level == 0.9
        assert rule.threshold == pytest.approx(0.25)

    def test_literal_span_path(self):
        (rule,) = parse_slo("forecast/fit_p50 < 2s")
        assert rule.metric == "span/forecast/fit"
        assert rule.level == 0.5

    def test_default_window(self):
        rules = by_severity("qos_violation_rate < 0.1")
        assert (rules["critical"].over, rules["warning"].over) == (288 // 24, 288 // 6)

    @pytest.mark.parametrize(
        "bad",
        ["banana", "rate ~ 0.5", "x < ", "qos_violation_rate < 5 over 0", "mape > 1.2.3"],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError) as error:
            parse_slo(bad)
        assert f"cannot parse alert rule {bad!r}; expected {GRAMMAR}" in str(error.value)

    def test_rate_threshold_must_be_a_fraction(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            parse_slo("qos_violation_rate < 5 over 288")

    def test_spec_round_trip_display(self):
        spec = "qos_violation_rate < 0.05 over 288"
        assert [rule.name for rule in parse_slo(f"  {spec} ")] == [
            f"slo-burn:{spec}:critical", f"slo-burn:{spec}:warning",
        ]


class TestBurnRates:
    def test_default_ladder_scales_to_window(self):
        rules = by_severity("qos_violation_rate < 0.05 over 288")
        assert rules["critical"].threshold == pytest.approx(14.4 * 0.05)
        assert rules["critical"].over == 12
        assert rules["warning"].over == 48

    def test_tiny_window_clamps_to_one_tick(self):
        for rule in parse_slo("qos_violation_rate < 0.05 over 4"):
            assert rule.over == 1

    def test_invalid_rule_rejected(self):
        with pytest.raises(ValueError):
            AlertRule(metric="violation_rate", op=">=", threshold=0.7, over=-1)
        with pytest.raises(ValueError):
            AlertRule(metric="violation_rate", op=">=", threshold=0.7, for_windows=0)


class TestSLOTracker:
    def make_tracker(self, spec="qos_violation_rate < 0.05 over 48"):
        engine = AlertEngine()
        return SLOTracker([spec], engine=engine), engine

    def test_healthy_run_consumes_no_budget(self):
        tracker, engine = self.make_tracker()
        for i in range(6):
            status = feed(tracker, window_record((i + 1) * 12))
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
            status = feed(tracker, window_record((i + 1) * 12, violation_rate=0.5))
        (entry,) = status
        assert not entry["healthy"]
        assert entry["burn"]["warning"]["firing"]
        assert any(a.rule.name.startswith("slo-burn:") for a in engine.alerts)
        fired = len(engine.alerts)

        # Still burning: once-per-episode, no new alert.
        feed(tracker, window_record(60, violation_rate=0.5))
        assert len(engine.alerts) == fired

        # Recover for long enough that the sub-windows drain.
        status = None
        for i in range(6):
            status = feed(tracker, window_record(72 + i * 12))
        (entry,) = status
        assert entry["healthy"]
        assert not entry["burn"]["warning"]["firing"]

    def test_single_bad_window_does_not_page(self):
        # Multi-window confirmation: one bad window inside an otherwise
        # clean stream must not fire the slow (warning) burn alert.
        tracker, engine = self.make_tracker()
        feed(tracker, window_record(12))
        feed(tracker, window_record(24, violation_rate=0.3))
        (entry,) = feed(tracker, window_record(36))
        assert not entry["burn"]["warning"]["firing"]

    def test_budget_consumed_accounting(self):
        tracker, _ = self.make_tracker()
        # Budget = 0.05 * 48 = 2.4 bad ticks; 0.1 * 12 = 1.2 bad ticks.
        (entry,) = feed(tracker, window_record(12, violation_rate=0.1))
        assert entry["bad_ticks"] == pytest.approx(1.2)
        assert entry["budget_consumed"] == pytest.approx(0.5)
        assert entry["budget_remaining"] == pytest.approx(0.5)

    def test_ledger_evicts_outside_window(self):
        tracker, _ = self.make_tracker()
        feed(tracker, window_record(12, violation_rate=1.0))
        # 5 windows later the bad window has left the 48-tick SLO window.
        for i in range(5):
            status = feed(tracker, window_record(24 + i * 12))
        (entry,) = status
        assert entry["bad_ticks"] == 0.0

    def test_good_rate_objective(self):
        tracker, _ = self.make_tracker("coverage@0.9 >= 0.85 over 48")
        (entry,) = feed(tracker, window_record(12, coverage={"0.9": 0.75}))
        # bad rate = 1 - 0.75 = 0.25 over a 0.15 budget
        assert entry["bad_ticks"] == pytest.approx(0.25 * 12)

    def test_latency_objective_reads_span_histogram(self):
        registry = MetricsRegistry(sinks=[InMemorySink()])
        tracker, _ = self.make_tracker("plan_latency_p99 < 0.5s")
        with using_registry(registry):
            registry.histogram("span/runtime.step/plan").observe(0.001)
            (entry,) = feed(tracker, window_record(12))
        assert entry["slo_kind"] == "latency"
        assert entry["value_s"] == pytest.approx(0.001)
        assert entry["healthy"]

    def test_latency_objective_reads_every_label_set(self):
        """``forecast/fit`` spans carry ``model`` / ``mode`` labels; the
        objective reads them all and takes the slowest label set."""
        registry = MetricsRegistry(sinks=[InMemorySink()])
        tracker, engine = self.make_tracker("forecast/fit_p50 < 1ms")
        with using_registry(registry):
            for _ in range(5):
                with registry.span("forecast/fit", model="TFT", mode="warm"):
                    time.sleep(0.002)
                registry.histogram("span/forecast/fit", model="MLP", mode="cold").observe(1e-5)
            series = registry.snapshot()["spans"].keys()
            (entry,) = feed(tracker, window_record(12))
            assert registry.snapshot()["spans"].keys() == series  # nothing interned
        assert entry["value_s"] >= 0.002
        assert not entry["healthy"]
        assert [a.rule.name for a in engine.alerts] == ["slo-latency:forecast/fit_p50 < 1ms"]

    def test_latency_breach_fires_and_recovers(self):
        registry = MetricsRegistry(sinks=[InMemorySink()])
        tracker, engine = self.make_tracker("plan_latency_p99 < 0.5s")
        with using_registry(registry):
            hist = registry.histogram("span/runtime.step/plan")
            hist.observe(2.0)
            status = feed(tracker, window_record(12))
            assert not status[0]["healthy"]
            assert len(engine.alerts) == 1
            # Fast observations drown out the slow one; p99 recovers.
            for _ in range(500):
                hist.observe(0.001)
            status = feed(tracker, window_record(24))
            assert status[0]["healthy"]

    def test_latency_without_data_is_healthy(self):
        tracker, engine = self.make_tracker("plan_latency_p99 < 0.5s")
        with using_registry(MetricsRegistry()):
            (entry,) = feed(tracker, window_record(12))
        assert entry["value_s"] is None
        assert entry["healthy"]

    def test_emits_slo_events_and_budget_gauge(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        tracker, _ = self.make_tracker()
        with using_registry(registry):
            feed(tracker, window_record(12, violation_rate=0.1))
        kinds = {r["kind"] for r in sink.records}
        assert "slo" in kinds
        snap = registry.snapshot()
        key = [k for k in snap["gauges"] if k.startswith("slo.budget_consumed")]
        assert key and snap["gauges"][key[0]] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "spec, bad",
        [("qos_violation_rate < 0 over 48", {"violation_rate": 1 / 12}),
         ("coverage@0.9 >= 1 over 48", {"coverage": {"0.9": 11 / 12}})],
    )
    def test_zero_budget_fires_on_the_first_bad_window_only(self, spec, bad):
        tracker, engine = self.make_tracker(spec)
        clean = {"coverage": {"0.9": 1.0}}
        for i in range(6):
            (entry,) = feed(tracker, window_record((i + 1) * 12, **clean))
            assert entry["healthy"] and entry["budget_consumed"] == 0.0
        assert engine.alerts == []
        (entry,) = feed(tracker, window_record(84, **{**clean, **bad}))
        assert [(a.rule.severity, a.end_index) for a in engine.alerts] == [
            ("critical", 84), ("warning", 84),
        ]
        assert entry["burn"]["critical"]["long_burn"] == float("inf")
        assert entry["budget_consumed"] == 1.0

    def test_a_window_without_the_metric_leaves_the_burn_firing(self):
        """One missing-value rule: a record lacking the metric skips every
        rule on it, so a burn in progress neither re-arms nor re-fires."""
        tracker, engine = self.make_tracker()
        for i in range(4):
            feed(tracker, window_record((i + 1) * 12, violation_rate=0.5))
        fired = [a.rule.name for a in engine.alerts]
        assert fired and tracker.status()[0]["burn"]["warning"]["firing"]
        blind = window_record(60)
        del blind["violation_rate"]
        (entry,) = feed(tracker, blind)
        assert entry["burn"]["warning"]["firing"] and not entry["healthy"]
        feed(tracker, window_record(72, violation_rate=0.5))
        assert [a.rule.name for a in engine.alerts] == fired  # same episode


class TestStatePersistence:
    SPEC = "qos_violation_rate < 0.05 over 48"

    def test_state_round_trip(self):
        tracker, restored = (SLOTracker([self.SPEC], engine=AlertEngine()) for _ in range(2))
        for i in range(3):
            feed(tracker, window_record((i + 1) * 12, violation_rate=0.2))
        restored.engine.load_state_dict(tracker.engine.state_dict())
        assert restored.engine.state_dict() == tracker.engine.state_dict()
        assert restored.status() == tracker.status()
        # Continuing from restored state matches continuing the original.
        a = feed(tracker, window_record(48, violation_rate=0.2))
        b = feed(restored, window_record(48, violation_rate=0.2))
        assert a == b

    def test_mismatched_objectives_rejected(self):
        tracker = SLOTracker([self.SPEC], engine=AlertEngine())
        feed(tracker, window_record(12))
        state = tracker.engine.state_dict()
        other = SLOTracker(["qos_violation_rate < 0.1 over 24"], engine=AlertEngine())
        with pytest.raises(ValueError, match=r"do not match.*'violation_rate': 24"):
            other.engine.load_state_dict(state)
        with pytest.raises(ValueError, match="do not match"):
            AlertEngine().load_state_dict(state)


class TestMonitorIntegration:
    @staticmethod
    def build():
        engine = AlertEngine()
        tracker = SLOTracker(["qos_violation_rate < 0.05 over 48"], engine=engine)
        return ModelHealthMonitor(window=4, alerts=engine, slos=tracker)

    @staticmethod
    def observe(monitor, ticks):
        levels = (0.1, 0.5, 0.9)
        for t in ticks:
            monitor.observe(
                levels, (90.0, 100.0, 110.0), 100.0, time_index=t,
                nodes=1, threshold=50.0,  # violated every tick
            )

    def test_monitor_feeds_tracker_on_window_close(self):
        monitor = self.build()
        self.observe(monitor, range(8))
        assert len(monitor.windows) == 2
        (entry,) = monitor.slos.status()
        assert entry["bad_ticks"] == 8
        assert monitor.alerts.alerts  # 100 % bad against a 5 % budget

    def test_monitor_state_round_trips_slo_ledger(self):
        monitor = self.build()
        self.observe(monitor, range(6))
        state = monitor.state_dict()
        assert "slos" not in state and state["alerts"]["ledgers"]

        restored = self.build()
        restored.load_state_dict(state)
        assert restored.slos.status() == monitor.slos.status()
        self.observe(monitor, range(6, 14))
        self.observe(restored, range(6, 14))
        assert restored.state_dict() == monitor.state_dict()

    def test_monitor_without_tracker_state_is_none(self):
        monitor = ModelHealthMonitor(window=4)
        state = monitor.state_dict()
        assert state["alerts"] is None and "slos" not in state
        ModelHealthMonitor(window=4).load_state_dict(state)
        # The key is part of the format: only checkpoints older than this
        # build's version lack it, and those are rejected at the door.
        del state["alerts"]
        with pytest.raises(KeyError, match="alerts"):
            ModelHealthMonitor(window=4).load_state_dict(state)

    def test_tracker_must_share_the_monitors_engine(self):
        tracker = SLOTracker(["qos_violation_rate < 0.05 over 48"], engine=AlertEngine())
        for alerts in (None, AlertEngine()):
            with pytest.raises(ValueError, match="alerts engine"):
                ModelHealthMonitor(window=4, alerts=alerts, slos=tracker)
