"""Acceptance: one live daemon, a regime shift, and the whole obs stack.

A single in-process daemon serves a synthetic workload that triples
mid-stream while its planner stays pinned at one node — a sustained QoS
breach.  Against that one live process we require:

* the SLO burn-rate alert shows up in ``GET /health`` and in the
  telemetry JSONL;
* the Prometheus exposition scrapes and parses;
* ``GET /traces`` returns spans that render as a timeline;
* the ``top`` dashboard renders a frame showing the breach.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core import AutoscalingRuntime, ScalingPlan
from repro.obs import (
    AlertEngine,
    JsonlSink,
    MetricsRegistry,
    ModelHealthMonitor,
    SLOTracker,
    TraceCollector,
    parse_exposition,
    render_trace_timeline,
)
from repro.obs.registry import set_registry
from repro.service import GeneratorSource, ServiceRuntime, run_dashboard

QUIET, SHIFTED = 30.0, 300.0
SERIES = [QUIET] * 30 + [SHIFTED] * 50
THRESHOLD = 60.0


class PinnedPlanner:
    """Forecasts the quiet regime forever: one node, no matter what."""

    name = "pinned"

    def __init__(self, horizon):
        self.horizon = horizon

    def plan(self, context, start_index=0):
        return ScalingPlan(
            nodes=np.ones(self.horizon, dtype=np.int64),
            threshold=THRESHOLD,
            strategy=self.name,
            metadata={
                "forecast_levels": np.array([0.1, 0.5, 0.9]),
                "forecast_values": np.vstack(
                    [np.full(self.horizon, QUIET * f) for f in (0.8, 1.0, 1.2)]
                ),
            },
        )


def request(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


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


@pytest.fixture(scope="module")
def burned(tmp_path_factory):
    """The daemon after draining the shifted series, still serving."""
    telemetry = tmp_path_factory.mktemp("slo-e2e") / "telemetry.jsonl"
    registry = MetricsRegistry(sinks=[JsonlSink(telemetry)])
    previous = set_registry(registry)
    engine = AlertEngine()
    slos = SLOTracker(["qos_violation_rate < 0.05 over 24"], engine=engine)
    runtime = AutoscalingRuntime(
        planner=PinnedPlanner(8), context_length=6, horizon=8,
        threshold=THRESHOLD,
        monitor=ModelHealthMonitor(window=4, alerts=engine, slos=slos),
    )
    service = ServiceRuntime(
        runtime, GeneratorSource(SERIES),
        tracer=TraceCollector(max_traces=32),
        linger=60.0,
    )
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 20
        while service.port is None or service.ticks_processed < len(SERIES):
            if time.monotonic() > deadline:
                raise TimeoutError("daemon never drained the series")
            time.sleep(0.02)
        yield service, telemetry
    finally:
        service.request_stop()
        thread.join(timeout=10)
        set_registry(previous)


class TestSloBurn:
    def test_health_shows_the_breach(self, burned):
        service, _ = burned
        status, health = request(service.port, "/health")
        assert status == 200
        (entry,) = health["slo"]
        assert entry["objective"] == "qos_violation_rate < 0.05 over 24"
        assert entry["healthy"] is False
        critical = entry["burn"]["critical"]
        assert critical["long_burn"] >= 14.4
        assert health["alerts_fired"] >= 1

    def test_burn_alert_and_slo_events_reach_the_jsonl(self, burned):
        _, telemetry = burned
        records = [
            json.loads(line)
            for line in telemetry.read_text().splitlines()
            if line.strip()
        ]
        alerts = [r for r in records if r.get("kind") == "alert"]
        assert any(r["name"].startswith("slo-burn:") for r in alerts)
        slo_events = [r for r in records if r.get("kind") == "slo"]
        assert slo_events
        assert any(r.get("budget_consumed", 0) > 1.0 for r in slo_events)

    def test_decisions_stayed_pinned(self, burned):
        # The breach is real: capacity never followed the workload.
        service, _ = burned
        _, payload = request(service.port, "/decisions?limit=5")
        assert all(
            d["nodes_first"] == 1
            for d in payload["decisions"]
            if d["source"] == "predictive"
        )


class TestScrapeAndTraces:
    def test_prometheus_scrape_parses(self, burned):
        service, _ = burned
        status, ctype, text = request_raw(
            service.port, "/metrics?format=prometheus"
        )
        assert status == 200
        assert "version=0.0.4" in ctype
        families = parse_exposition(text)
        assert "repro_slo_budget_consumed" in families
        assert "repro_span_duration_seconds" in families

    def test_traces_render_as_timelines(self, burned):
        service, _ = burned
        status, payload = request(service.port, "/traces?limit=2")
        assert status == 200
        assert payload["tracing"] is True
        timeline = render_trace_timeline(payload["traces"][-1])
        assert "runtime.step" in timeline
        assert "|" in timeline and "#" in timeline


class TestTopAgainstLiveDaemon:
    def test_one_shot_dashboard_shows_the_breach(self, burned, capsys):
        service, _ = burned
        assert run_dashboard("127.0.0.1", service.port, once=True) == 0
        out = capsys.readouterr().out
        assert "repro-autoscale top" in out
        assert "FIRING" in out
        assert "workload vs capacity" in out
