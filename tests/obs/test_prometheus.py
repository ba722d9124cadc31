"""Prometheus text exposition: rendering, escaping, and the validator."""

import pytest

from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    parse_exposition,
    render_prometheus,
    using_registry,
)
from repro.obs.sinks import InMemorySink


def live_snapshot():
    registry = MetricsRegistry(sinks=[InMemorySink()])
    with using_registry(registry):
        registry.counter("runtime.decisions", source="predictive").inc(3)
        registry.counter("runtime.decisions", source="degraded").inc()
        registry.gauge("runtime.nodes_requested").set(7)
        hist = registry.histogram("forecast.epoch_seconds")
        for v in (0.1, 0.2, 0.3):
            hist.observe(v)
        with registry.span("runtime.step"):
            with registry.span("plan"):
                pass
    return registry.snapshot()


class TestRender:
    def test_counters_become_total_families(self):
        text = render_prometheus(live_snapshot())
        assert "# TYPE repro_runtime_decisions_total counter" in text
        assert 'repro_runtime_decisions_total{source="predictive"} 3.0' in text
        assert 'repro_runtime_decisions_total{source="degraded"} 1.0' in text

    def test_gauges_map_directly(self):
        text = render_prometheus(live_snapshot())
        assert "# TYPE repro_runtime_nodes_requested gauge" in text
        assert "repro_runtime_nodes_requested 7.0" in text

    def test_histograms_export_as_summaries(self):
        text = render_prometheus(live_snapshot())
        assert "# TYPE repro_forecast_epoch_seconds summary" in text
        assert 'repro_forecast_epoch_seconds{quantile="0.5"}' in text
        assert "repro_forecast_epoch_seconds_count 3" in text
        assert "repro_forecast_epoch_seconds_sum" in text

    def test_spans_fold_into_one_duration_family(self):
        text = render_prometheus(live_snapshot())
        assert "# TYPE repro_span_duration_seconds summary" in text
        assert 'path="runtime.step/plan"' in text
        assert 'path="runtime.step"' in text

    def test_names_are_sanitised(self):
        snapshot = {"counters": {"weird.name-with/slashes": 1.0}}
        text = render_prometheus(snapshot)
        assert "repro_weird_name_with_slashes_total 1.0" in text

    def test_label_values_escaped(self):
        snapshot = {"counters": {'c{rule=a"b\\c}': 2.0}}
        text = render_prometheus(snapshot)
        assert 'rule="a\\"b\\\\c"' in text

    def test_custom_prefix_and_empty_snapshot(self):
        assert render_prometheus({}) == ""
        text = render_prometheus({"gauges": {"g": 1.0}}, prefix="acme")
        assert "acme_g 1.0" in text

    def test_none_gauges_skipped(self):
        text = render_prometheus({"gauges": {"unset": None, "set": 2.0}})
        assert "unset" not in text
        assert "repro_set 2.0" in text

    def test_empty_reservoir_quantiles_omitted(self):
        # A histogram summary with count>0 but no quantiles must not
        # render NaN samples.
        snapshot = {
            "histograms": {
                "h": {"count": 5, "sum": 1.0, "p50": None, "p90": None,
                      "p99": None}
            }
        }
        text = render_prometheus(snapshot)
        assert "quantile" not in text
        assert "repro_h_count 5" in text
        assert "repro_h_sum 1.0" in text
        parse_exposition(text)  # stays well-formed

    def test_non_finite_values_use_prometheus_literals(self):
        text = render_prometheus(
            {"gauges": {"inf": float("inf"), "nan": float("nan")}}
        )
        assert "repro_inf +Inf" in text
        assert "repro_nan NaN" in text

    def test_content_type_constant(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestParseExposition:
    def test_round_trip(self):
        families = parse_exposition(render_prometheus(live_snapshot()))
        assert families["repro_runtime_decisions_total"][
            '{source="predictive"}'
        ] == 3.0
        assert families["repro_runtime_nodes_requested"][""] == 7.0
        assert "repro_span_duration_seconds" in families

    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_exposition("this is not a metric\n")

    def test_rejects_garbage_value(self):
        with pytest.raises(ValueError):
            parse_exposition("metric_name banana\n")

    def test_rejects_malformed_comment(self):
        with pytest.raises(ValueError, match="malformed comment"):
            parse_exposition("# NOT-A-DIRECTIVE x\n")

    def test_accepts_inf_and_nan_literals(self):
        families = parse_exposition("m_inf +Inf\nm_nan NaN\n")
        assert families["m_inf"][""] == float("inf")
        assert families["m_nan"][""] != families["m_nan"][""]  # NaN

    def test_blank_lines_ignored(self):
        assert parse_exposition("\n\n") == {}
