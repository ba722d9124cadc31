"""Tests for the declarative alert-rule engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    Alert,
    AlertEngine,
    MetricsRegistry,
    default_rules,
    parse_rule,
    using_registry,
)
from repro.obs.alerts import AlertRule
from repro.obs.sinks import InMemorySink


def window_record(**overrides):
    record = {
        "kind": "model_health",
        "name": "monitor.window",
        "window": 0,
        "end_index": 23,
        "coverage": {"0.5": 0.5, "0.9": 0.9},
        "calibration_error": 0.02,
        "wql": {"0.5": 0.1, "0.9": 0.05},
        "mean_wql": 0.075,
        "mape": 0.1,
        "drift_score": 1.0,
        "drift_events": 0,
        "violation_rate": 0.0,
    }
    record.update(overrides)
    return record


class TestParseRule:
    def test_full_grammar(self):
        rule = parse_rule("coverage@0.9 < 0.8 for 12")
        assert rule.metric == "coverage"
        assert rule.level == 0.9
        assert rule.op == "<"
        assert rule.threshold == 0.8
        assert rule.for_windows == 12
        assert rule.severity == "warning"

    def test_minimal_grammar(self):
        rule = parse_rule("drift_score > 6")
        assert rule.metric == "drift_score"
        assert rule.level is None
        assert rule.for_windows == 1

    def test_all_comparators(self):
        for op in ("<", "<=", ">", ">="):
            assert parse_rule(f"mape {op} 0.5").op == op

    def test_severity_passthrough(self):
        assert parse_rule("mape > 0.5", severity="critical").severity == "critical"

    def test_roundtrip_through_spec(self):
        for spec in ("coverage@0.9 < 0.75 for 2", "violation_rate > 0.2"):
            assert parse_rule(spec).spec == spec

    def test_rejects_garbage(self):
        for bad in ("", "coverage", "coverage < ", "coverage ~ 0.5", "< 0.8", "mape > 1.2.3",
                    "mape > 1 over 0", "mape > inf"):
            with pytest.raises(ValueError, match="cannot parse alert rule"):
                parse_rule(bad)

    def test_signed_numbers_and_windows(self):
        rule = parse_rule("mean_residual < -1.5e+2 for 3 over 48", severity="critical")
        assert (rule.threshold, rule.for_windows, rule.over) == (-150.0, 3, 48)
        assert rule.spec == "mean_residual < -150 for 3 over 48"

    def test_latency_rules_share_the_grammar(self):
        rule = parse_rule("plan_latency_p99 > 250ms for 2")
        assert (rule.metric, rule.level, rule.threshold) == ("span/runtime.step/plan", 0.99, 0.25)
        assert parse_rule(rule.spec) == rule


METRICS = st.sampled_from(
    ["coverage", "wql", "mape", "drift_score", "violation_rate", "span/runtime.step/plan",
     "span/forecast/fit"]
)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(
    metric=METRICS,
    op=st.sampled_from(["<", "<=", ">", ">="]),
    threshold=NUMBERS,
    level=st.none() | st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    for_windows=st.integers(1, 500),
    severity=st.sampled_from(["warning", "critical"]),
    over=st.integers(0, 10_000),
)
def test_parse_rule_reads_back_every_rule_spec(metric, op, threshold, level, for_windows,
                                               severity, over):
    rule = AlertRule(metric, op, threshold, level, for_windows, severity, over=over)
    assert parse_rule(rule.spec, severity=severity) == rule


class TestAlertRule:
    def test_per_level_lookup(self):
        rule = AlertRule(metric="coverage", level=0.9, op="<", threshold=0.8)
        assert rule.value_from(window_record()) == 0.9
        assert rule.value_from(window_record(coverage={"0.5": 0.4})) is None

    def test_dict_metric_without_level_is_skipped(self):
        rule = AlertRule(metric="coverage", op="<", threshold=0.8)
        assert rule.value_from(window_record()) is None

    def test_scalar_lookup(self):
        rule = AlertRule(metric="mape", op=">", threshold=0.5)
        assert rule.value_from(window_record(mape=0.7)) == 0.7
        assert rule.value_from({"kind": "model_health"}) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            AlertRule(metric="mape", op="~", threshold=0.5)
        with pytest.raises(ValueError):
            AlertRule(metric="mape", op=">", threshold=0.5, for_windows=0)

    def test_default_name_is_spec(self):
        rule = AlertRule(metric="coverage", level=0.9, op="<", threshold=0.8)
        assert rule.name == "coverage@0.9 < 0.8"


class TestAlertEngine:
    def test_fires_after_streak(self):
        engine = AlertEngine([parse_rule("coverage@0.9 < 0.8 for 3")])
        for i in range(2):
            assert engine.evaluate(window_record(coverage={"0.9": 0.5})) == []
        fired = engine.evaluate(window_record(coverage={"0.9": 0.5}))
        assert len(fired) == 1
        assert isinstance(fired[0], Alert)
        assert fired[0].value == 0.5

    def test_streak_resets_on_recovery(self):
        engine = AlertEngine([parse_rule("coverage@0.9 < 0.8 for 2")])
        engine.evaluate(window_record(coverage={"0.9": 0.5}))
        engine.evaluate(window_record(coverage={"0.9": 0.95}))  # recovers
        engine.evaluate(window_record(coverage={"0.9": 0.5}))
        assert engine.alerts == []

    def test_fires_once_per_breach_episode(self):
        engine = AlertEngine([parse_rule("mape > 0.5")])
        for _ in range(5):
            engine.evaluate(window_record(mape=0.9))
        assert len(engine.alerts) == 1
        # Recovery re-arms the rule.
        engine.evaluate(window_record(mape=0.1))
        engine.evaluate(window_record(mape=0.9))
        assert len(engine.alerts) == 2

    def test_missing_metric_does_not_break_streak_state(self):
        engine = AlertEngine([parse_rule("violation_rate > 0.2 for 2")])
        engine.evaluate(window_record(violation_rate=0.5))
        record = window_record()
        del record["violation_rate"]
        engine.evaluate(record)  # metric absent: rule skipped, streak kept
        fired = engine.evaluate(window_record(violation_rate=0.5))
        assert len(fired) == 1

    def test_emits_events_and_counters(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        engine = AlertEngine([parse_rule("mape > 0.5", severity="critical")])
        with using_registry(registry):
            engine.evaluate(window_record(mape=0.9, window=4, end_index=119))
        alert_events = [r for r in sink.records if r.get("kind") == "alert"]
        assert len(alert_events) == 1
        event = alert_events[0]
        assert event["severity"] == "critical"
        assert event["window"] == 4
        assert event["end_index"] == 119
        assert "mape" in event["message"]
        counters = registry.snapshot()["counters"]
        assert counters['alerts.fired{rule=mape > 0.5}'] == 1

    def test_windowed_rule_reads_the_step_weighted_mean(self):
        engine = AlertEngine([parse_rule("violation_rate > 0.25 over 48")])
        for end_index, rate in ((11, 0.0), (23, 0.0), (35, 0.0), (47, 0.5)):
            engine.evaluate(window_record(end_index=end_index, steps=12, violation_rate=rate))
        assert engine.alerts == []  # 0.5 over the last 12 ticks, 0.125 over 48
        fired = engine.evaluate(window_record(end_index=59, steps=12, violation_rate=1.0))
        assert [alert.value for alert in fired] == [pytest.approx(0.375)]

    def test_windowed_rule_needs_its_confirmation_window(self):
        engine = AlertEngine([parse_rule("violation_rate > 0.25 over 48")])
        engine.evaluate(window_record(end_index=35, steps=36, violation_rate=1.0))
        assert len(engine.alerts) == 1
        # Mean over 48 ticks still 0.75, but the last 12 ticks are clean.
        engine.evaluate(window_record(end_index=47, steps=12, violation_rate=0.0))
        engine.evaluate(window_record(end_index=59, steps=12, violation_rate=1.0))
        assert len(engine.alerts) == 2  # re-armed, then fired again

    def test_alert_records_roundtrip(self):
        engine = AlertEngine([parse_rule("mape > 0.5")])
        engine.evaluate(window_record(mape=0.9))
        records = engine.alert_records()
        assert len(records) == 1
        assert records[0]["kind"] == "alert"
        assert records[0]["value"] == 0.9


class TestDefaultRules:
    def test_shape(self):
        rules = default_rules(nominal_level=0.9)
        metrics = {rule.metric for rule in rules}
        assert metrics == {"coverage", "drift_events", "violation_rate"}
        coverage = next(r for r in rules if r.metric == "coverage")
        assert coverage.level == 0.9
        assert coverage.threshold == pytest.approx(0.75)
        drift = next(r for r in rules if r.metric == "drift_events")
        assert drift.severity == "critical"

    def test_threshold_clamped_at_zero(self):
        coverage = next(
            r for r in default_rules(nominal_level=0.1) if r.metric == "coverage"
        )
        assert coverage.threshold == 0.0
