"""Acceptance test for the model-health monitoring pipeline.

Runs the full closed loop through the CLI — forecaster, autoscaler,
runtime, monitor, telemetry — with a regime shift injected mid-trace,
then asserts the three observability artefacts the ISSUE demands:

(a) a windowed coverage series showing calibration degradation after
    the shift,
(b) at least one drift event timestamped inside the shifted region,
(c) a provenance record for every planning decision,

and (d) that ``repro.cli report`` renders all three from the JSONL
stream alone.
"""

import json

import pytest

from repro.cli import main
from repro.obs import summarize_records

# 7 days of the alibaba-like trace -> 1008 steps, 756 train / 252 test.
# The shift starts 200 steps into the test split (absolute index 956)
# and lifts the workload far outside the seasonal-naive envelope.
TRAIN_STEPS = 756
SHIFT_OFFSET = 200
SHIFT_START = TRAIN_STEPS + SHIFT_OFFSET

EVALUATE_ARGS = [
    "evaluate", "--trace", "alibaba", "--days", "7", "--model", "naive",
    "--context", "144", "--horizon", "36", "--quantile", "0.9",
    "--monitor", "--monitor-window", "12",
    "--inject-shift", f"{SHIFT_OFFSET}:1500",
]


@pytest.fixture(scope="module")
def telemetry(tmp_path_factory):
    path = tmp_path_factory.mktemp("health") / "telemetry.jsonl"
    code = main(EVALUATE_ARGS + ["--telemetry", str(path)])
    assert code == 0
    records = [
        json.loads(line) for line in path.read_text().splitlines() if line.strip()
    ]
    return path, records


def by_name(records, name):
    return [r for r in records if r.get("name") == name]


class TestCoverageDegradation:
    def test_windowed_coverage_collapses_after_shift(self, telemetry):
        _, records = telemetry
        windows = by_name(records, "monitor.window")
        assert len(windows) >= 4
        before = [w for w in windows if w["end_index"] < SHIFT_START]
        after = [w for w in windows if w["start_index"] >= SHIFT_START]
        assert before and after, "need windows on both sides of the shift"
        cov = lambda ws: sum(w["coverage"]["0.9"] for w in ws) / len(ws)
        # A 1500-unit level shift blows straight past the q0.9 forecast:
        # coverage must collapse, not merely dip.
        assert cov(after) < cov(before) - 0.3
        assert cov(after) < 0.1


class TestDriftDetection:
    def test_drift_event_inside_shifted_region(self, telemetry):
        _, records = telemetry
        drifts = by_name(records, "monitor.drift")
        assert drifts, "regime shift must produce at least one drift event"
        assert all(d["kind"] == "model_health" for d in drifts)
        in_region = [d for d in drifts if d["time_index"] >= SHIFT_START]
        assert in_region
        # The workload jumps up, so the shifted region must contain an
        # upward drift signal (pre-shift events may exist too: the
        # seasonal-naive model is genuinely imperfect on this trace).
        assert any(d["direction"] == "up" for d in in_region)


class TestProvenanceCompleteness:
    def test_one_record_per_planning_decision(self, telemetry):
        _, records = telemetry
        provenance = by_name(records, "runtime.decision")
        assert provenance

        # The counters as the file states them: `main` flushed them in
        # one `metrics` record before it closed the sink.
        counters = summarize_records(records).counters

        fallback = [p for p in provenance if p["source"] == "reactive-fallback"]
        predictive = [p for p in provenance if p["source"] == "predictive"]
        # Cross-check against the runtime's own counters: every fallback
        # activation and every predictive plan has exactly one record.
        assert len(fallback) == counters.get("runtime.fallback_activations", 0)
        assert len(predictive) == counters["runtime.decisions{source=predictive}"]
        assert len(predictive) >= 1

    def test_predictive_records_carry_decision_inputs(self, telemetry):
        _, records = telemetry
        predictive = [
            p for p in by_name(records, "runtime.decision")
            if p["source"] == "predictive"
        ]
        for record in predictive:
            assert record["tau_max"] == 0.9
            assert record["bound_max"] > 0
            assert record["uncertainty_mean"] >= 0
            assert record["nodes"]
            assert record["nodes_first"] == record["nodes"][0]


class TestAlerts:
    def test_miscalibration_fires_alerts(self, telemetry):
        _, records = telemetry
        alerts = [r for r in records if r.get("kind") == "alert"]
        assert alerts, "collapsed coverage must trip the default rules"
        names = {a["name"] for a in alerts}
        assert any("coverage@0.9" in n for n in names)
        assert any("drift_events" in n for n in names)


class TestReportRendering:
    def test_report_renders_model_health_from_jsonl(self, telemetry, capsys):
        path, _ = telemetry
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        # The standard summary is still there ...
        assert "telemetry summary" in out
        # ... plus all three model-health artefacts.
        assert "model health" in out
        assert "calibration over time" in out
        assert "cov@0.9" in out
        assert "drift events" in out
        assert "alerts" in out
        assert "decisions" in out
