"""Observability surface of the daemon: /traces, /series, Prometheus, top."""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core import AutoscalingRuntime, ScalingPlan
from repro.core.plan import required_nodes
from repro.obs import (
    AlertEngine,
    JsonlSink,
    MetricsRegistry,
    ModelHealthMonitor,
    SLOTracker,
    TraceCollector,
    parse_exposition,
    summarize_records,
    using_registry,
)
from repro.obs.sinks import InMemorySink
from repro.service import GeneratorSource, ServiceRuntime
from repro.service.dashboard import render_dashboard
from repro.service.dashboard import sparkline


class QuantilePlanner:
    name = "quantile-double"

    def __init__(self, horizon, threshold):
        self.horizon = horizon
        self.threshold = threshold

    def plan(self, context, start_index=0):
        base = float(np.mean(context))
        levels = np.array([0.1, 0.5, 0.9])
        values = np.vstack([
            np.full(self.horizon, base * f) for f in (0.8, 1.0, 1.2)
        ])
        return ScalingPlan(
            nodes=required_nodes(values[-1], self.threshold),
            threshold=self.threshold,
            strategy=self.name,
            metadata={"forecast_levels": levels, "forecast_values": values},
        )


def request(port, method, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return status_payload(response)
    finally:
        conn.close()


def status_payload(response):
    return response.status, json.loads(response.read())


def request_raw(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type", ""),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


SERIES = list(np.abs(np.random.default_rng(11).normal(300, 60, size=30)))


@pytest.fixture(scope="module")
def traced():
    """A drained service with tracer, monitor, and SLOs attached."""
    engine = AlertEngine()
    slos = SLOTracker(
        [
            "qos_violation_rate < 0.05 over 24",
            "plan_latency_p99 < 10s",
            # A zero budget: its burn rates are inf once a violation lands.
            "qos_violation_rate <= 0 over 48",
        ],
        engine=engine,
    )
    runtime = AutoscalingRuntime(
        planner=QuantilePlanner(4, 60.0), context_length=6, horizon=4,
        threshold=60.0,
    )
    runtime.monitor = ModelHealthMonitor(window=4, alerts=engine, slos=slos)
    service = ServiceRuntime(
        runtime, GeneratorSource(SERIES),
        tracer=TraceCollector(max_traces=16),
        linger=60.0,
    )
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while service.port is None:
        if time.monotonic() > deadline:
            raise TimeoutError("service never bound its port")
        time.sleep(0.01)
    deadline = time.monotonic() + 10
    while service.ticks_processed < len(SERIES):
        if time.monotonic() > deadline:
            raise TimeoutError("service never drained the series")
        time.sleep(0.02)
    yield service
    service.request_stop()
    thread.join(timeout=10)


class TestHealthObservability:
    def test_health_carries_slo_status(self, traced):
        status, health = request(traced.port, "GET", "/health")
        assert status == 200
        objectives = {entry["objective"] for entry in health["slo"]}
        assert "qos_violation_rate < 0.05 over 24" in objectives
        assert "plan_latency_p99 < 10s" in objectives
        for entry in health["slo"]:
            assert "healthy" in entry

    def test_health_is_strict_json_when_a_zero_budget_slo_burns(self, traced):
        # The wire form writes an inf burn rate as null, never a bare
        # Infinity, which RFC 8259 parsers reject.
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        conn = http.client.HTTPConnection("127.0.0.1", traced.port, timeout=10)
        try:
            conn.request("GET", "/health")
            health = json.loads(conn.getresponse().read(), parse_constant=refuse)
        finally:
            conn.close()
        objective = "qos_violation_rate <= 0 over 48"
        (entry,) = [e for e in health["slo"] if e["objective"] == objective]
        (tracked,) = [
            e for e in traced.runtime.monitor.slos.status() if e["objective"] == objective
        ]
        assert entry["bad_ticks"] > 0
        for severity, rates in tracked["burn"].items():
            for key in ("long_burn", "short_burn"):
                assert rates[key] == float("inf")
                assert entry["burn"][severity][key] is None

    def test_health_carries_phase_latencies(self, traced):
        _, health = request(traced.port, "GET", "/health")
        assert set(health["phases"]) == {"plan", "actuate", "observe"}
        assert all(v >= 0 for v in health["phases"].values())


class TestTraces:
    def test_serves_recent_traces(self, traced):
        status, payload = request(traced.port, "GET", "/traces?limit=3")
        assert status == 200
        assert payload["tracing"] is True
        assert payload["total"] >= 3
        assert len(payload["traces"]) == 3
        trace = payload["traces"][-1]
        assert {"trace_id", "status", "duration_ns", "spans"} <= trace.keys()
        # An idle tick is the one step span; a planning tick adds `plan`
        # around the planner (this test double opens no spans of its own).
        planned = {
            d.time_index for d in traced.runtime.decisions if d.source != "reactive-fallback"
        }
        _, payload = request(traced.port, "GET", f"/traces?limit={len(SERIES)}")
        shapes = set()
        for trace in payload["traces"]:
            tree = [(span["name"], span.get("parent")) for span in trace["spans"]]
            if trace["trace_id"] in planned:
                assert tree == [
                    ("runtime.step", None),
                    ("runtime.step/plan", 0),
                    ("runtime.step/plan/planner", 1),
                ]
            else:
                assert tree == [("runtime.step", None)]
            shapes.add(len(tree))
        assert shapes == {1, 3}

    def test_span_tree_is_well_formed(self, traced):
        _, payload = request(traced.port, "GET", "/traces?limit=1")
        trace = payload["traces"][0]
        spans = trace["spans"]
        roots = [s for s in spans if "parent" not in s]
        assert len(roots) == 1
        assert roots[0]["name"] == "runtime.step"
        for index, span in enumerate(spans):
            assert "parent" not in span or 0 <= span["parent"] < index

    @pytest.mark.parametrize("query", ["?limit=zebra", "?limit=0", "?limit=-3"])
    def test_bad_limit_is_400(self, traced, query):
        status, payload = request(traced.port, "GET", f"/traces{query}")
        assert status == 400
        assert "limit" in payload["error"]

    def test_untraced_daemon_reports_tracing_false(self):
        runtime = AutoscalingRuntime(
            planner=QuantilePlanner(4, 60.0), context_length=6, horizon=4,
            threshold=60.0,
        )
        service = ServiceRuntime(runtime, GeneratorSource([]))
        # Isolate from any tracer another fixture left on the ambient
        # registry: an untraced daemon must say so.
        with using_registry(MetricsRegistry()):
            payload = service._handle_traces({}, None)
        assert payload == {"total": 0, "tracing": False, "traces": []}


class TestTelemetryStream:
    """A tick's telemetry is written once (see docs/observability.md)."""

    def test_idle_tick_writes_one_trace_and_one_metrics_record(self, tmp_path):
        # The tick's metrics record rides in its trace record: one line.
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        runtime = AutoscalingRuntime(
            planner=QuantilePlanner(4, 60.0), context_length=6, horizon=4,
            threshold=60.0, replan_every=4,
        )
        runtime.monitor = ModelHealthMonitor(window=5, alerts=AlertEngine())
        service = ServiceRuntime(
            runtime, GeneratorSource(SERIES), tracer=TraceCollector(4),
            checkpoint_dir=tmp_path / "ckpt", checkpoint_at=len(SERIES),
        )
        with using_registry(registry):
            service.serve_forever()
            snapshot = registry.snapshot()
            registry.remove_sink(sink)

        kinds = [r["kind"] for r in sink.records]
        assert not {"counter", "gauge", "service", "span"} & set(kinds)
        assert kinds.count("trace") == len(SERIES)
        # Every tick's flush is in its trace; the one `metrics` record is
        # the final flush owed for the counter of the checkpoint written
        # after the last tick's record.
        assert kinds.count("metrics") == 1
        assert sink.records[-1]["kind"] == "metrics"
        assert sink.records[-1]["counters"] == {"service.checkpoints": 1.0}

        # Split on the trace record that ends each tick: a tick that
        # neither planned nor closed a monitor window wrote exactly its
        # trace, which holds what moved on an idle tick, nothing else.
        ticks, lines = [], []
        for record in sink.records[:-1]:
            lines.append(record)
            if record["kind"] == "trace":
                ticks.append(lines)
                lines = []
        assert not lines and len(ticks) == len(SERIES)
        quiet = [
            tick for tick in ticks
            if not {"provenance", "model_health"} & {r["kind"] for r in tick}
        ]
        assert len(quiet) >= 5
        for tick in quiet:
            assert [r["kind"] for r in tick] == ["trace"]
            assert tick[0]["counters"].keys() == {
                "runtime.observations", "service.ticks"
            }
            assert tick[0]["gauges"].keys() <= {"runtime.nodes_requested"}
        # A gauge is written when its value moves, not on every set.
        written = [
            r["gauges"]["runtime.nodes_requested"] for r in sink.records
            if "runtime.nodes_requested" in r.get("gauges", {})
        ]
        assert written and all(a != b for a, b in zip(written, written[1:]))

        # The file and /metrics cannot disagree.
        replayed = summarize_records(sink.records)
        assert replayed.unknown_kinds == {}
        assert replayed.counters == snapshot["counters"]
        assert replayed.gauges == snapshot["gauges"]
        assert {k: s.count for k, s in replayed.spans.items()} == {
            k: s["count"] for k, s in snapshot["spans"].items()
        }
        assert replayed.spans["runtime.step"].count == len(SERIES)

    def test_served_tick_trace_is_lean_integers(self, tmp_path):
        """One span shape: integers, set fields only, parents by index."""
        path = tmp_path / "telemetry.jsonl"
        runtime = AutoscalingRuntime(
            planner=QuantilePlanner(4, 60.0), context_length=6, horizon=4,
            threshold=60.0, replan_every=4,
        )
        runtime.monitor = ModelHealthMonitor(window=5, alerts=AlertEngine())
        service = ServiceRuntime(
            runtime, GeneratorSource(SERIES), tracer=TraceCollector(4),
        )
        with JsonlSink(path) as sink:
            registry = MetricsRegistry(sinks=[sink])
            with using_registry(registry):
                service.serve_forever()
                registry.remove_sink(sink)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]

        traces = [r for r in records if r["kind"] == "trace"]
        assert len(traces) == len(SERIES)
        for trace in traces:
            assert isinstance(trace["duration_ns"], int)
            for index, span in enumerate(trace["spans"]):
                assert not {"span_id", "parent_id", "start_s", "duration_s"} & span.keys()
                assert not [k for k, v in span.items() if isinstance(v, float)]
                assert span.get("labels") != {}
                assert span.get("status") != "ok"
                assert isinstance(span["start_ns"], int)
                assert isinstance(span["duration_ns"], int)
                assert "parent" not in span or 0 <= span["parent"] < index

        # An idle tick (no decision, no monitor window) writes one line,
        # its trace with the tick's counters and gauges, and it stays
        # small (460-467 bytes measured; the margin covers timing
        # fields gaining a digit on a slower machine).
        idle = [
            line for previous, record, line in zip(records, records[1:], lines[1:])
            if record["kind"] == "trace" and previous["kind"] == "trace"
        ]
        assert idle
        assert max(len(line.encode()) for line in idle) <= 500


class TestSeries:
    def test_serves_workload_and_capacity_points(self, traced):
        status, payload = request(traced.port, "GET", "/series?limit=10")
        assert status == 200
        assert payload["total"] == len(SERIES)
        assert payload["threshold"] == 60.0
        assert len(payload["points"]) == 10
        point = payload["points"][-1]
        assert {"tick", "workload", "nodes"} <= point.keys()
        assert point["tick"] == len(SERIES) - 1
        assert point["workload"] == pytest.approx(SERIES[-1])

    @pytest.mark.parametrize("query", ["?limit=zebra", "?limit=0"])
    def test_bad_limit_is_400(self, traced, query):
        status, payload = request(traced.port, "GET", f"/series{query}")
        assert status == 400
        assert "limit" in payload["error"]


class TestPrometheusEndpoint:
    def test_content_negotiation(self, traced):
        status, ctype, text = request_raw(
            traced.port, "/metrics?format=prometheus"
        )
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        families = parse_exposition(text)
        assert any(n.startswith("repro_service_ticks") for n in families)
        assert any(n == "repro_span_duration_seconds" for n in families)

    def test_json_remains_the_default(self, traced):
        status, metrics = request(traced.port, "GET", "/metrics")
        assert status == 200
        assert "counters" in metrics

    def test_unknown_format_is_400(self, traced):
        status, payload = request(traced.port, "GET", "/metrics?format=xml")
        assert status == 400
        assert "format" in payload["error"]


class TestDashboard:
    def fetch_all(self, traced):
        return (
            request(traced.port, "GET", "/health")[1],
            request(traced.port, "GET", "/series?limit=20")[1],
            request(traced.port, "GET", "/decisions?limit=5")[1],
        )

    def test_renders_all_sections(self, traced):
        health, series, decisions = self.fetch_all(traced)
        frame = render_dashboard(health, series, decisions, color=False)
        assert "repro-autoscale top" in frame
        assert "SLO error budgets" in frame
        assert "recent decisions" in frame
        assert "workload vs capacity" in frame
        assert "\x1b[" not in frame  # color=False means no ANSI codes

    def test_color_frames_use_ansi(self, traced):
        health, series, decisions = self.fetch_all(traced)
        frame = render_dashboard(health, series, decisions, color=True)
        assert "\x1b[" in frame

    def test_renders_with_minimal_payloads(self):
        frame = render_dashboard({"status": "serving"}, color=False)
        assert "status=serving" in frame

    def test_sparkline_shape_and_scale(self):
        line = sparkline([0.0, 50.0, 100.0], width=3)
        assert len(line) == 3
        assert line[-1] == "█"
        assert sparkline([None, None], width=4) == "    "
        assert len(sparkline(list(range(100)), width=10)) == 10
