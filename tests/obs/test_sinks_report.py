"""Tests for telemetry sinks and the event-stream summarizer."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    TraceCollector,
    format_model_health,
    format_summary,
    read_jsonl,
    summarize_model_health,
    summarize_records,
)
from repro.obs.sinks import InMemorySink, Sink, encode


class TestInMemorySink:
    def test_copies_records(self):
        sink = InMemorySink()
        record = {"kind": "counter", "name": "c", "labels": {}}
        sink.emit(record)
        record["name"] = "mutated"
        assert sink.records[0]["name"] == "c"

    def test_structural_sink_protocol(self, tmp_path):
        # All shipped sinks satisfy the Sink protocol structurally.
        with JsonlSink(tmp_path / "x.jsonl") as jsonl:
            for sink in (InMemorySink(), jsonl):
                assert isinstance(sink, Sink)


class TestJsonlSink:
    def test_round_trip_through_read_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        registry = MetricsRegistry(time_source=lambda: 1.0)
        with JsonlSink(path) as sink:
            registry.add_sink(sink)
            registry.counter("decisions", strategy="tft").inc()
            registry.gauge("nodes").set(4)
            with registry.span("plan", model="tft"):
                pass
            registry.flush()
        assert sink.records_written == 2
        records = read_jsonl(path)
        assert [r["kind"] for r in records] == ["span", "metrics"]
        assert records[0]["labels"] == {"model": "tft"}
        assert records[1]["counters"] == {"decisions{strategy=tft}": 1.0}
        assert records[1]["gauges"] == {"nodes": 4.0}

    def test_numpy_values_serialised(self, tmp_path):
        path = tmp_path / "np.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"kind": "gauge", "value": np.float64(1.5), "n": np.int64(2)})
        record = read_jsonl(path)[0]
        assert record["value"] == 1.5
        assert record["n"] == 2

    def test_an_array_is_a_list_whatever_its_size(self):
        # A horizon-1 forecast is still a list; only a 0-d array is a scalar.
        assert encode(
            {"one": np.array([1.5]), "nested": np.array([[7]]), "zero_d": np.array(2.5)}
        ) == b'{"one":[1.5],"nested":[[7]],"zero_d":2.5}'

    def test_lines_are_strict_json_and_non_finite_values_become_null(self, tmp_path):
        path = tmp_path / "strict.jsonl"
        finite = {"kind": "gauge", "name": "g", "labels": {"a": "é"}, "value": np.float64(0.1)}
        with JsonlSink(path) as sink:
            sink.emit(finite)
            sink.emit({"kind": "gauge", "min": np.inf, "nested": [float("nan"), 1.0]})
        first, second = path.read_text(encoding="utf-8").splitlines()
        # Compact separators, raw UTF-8, numpy scalars at their Python value.
        assert first == '{"kind":"gauge","name":"g","labels":{"a":"é"},"value":0.1}'
        assert json.loads(second) == {"kind": "gauge", "min": None, "nested": [None, 1.0]}

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.emit({"kind": "counter"})

    def test_close_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        sink.close()
        sink.close()

    def test_aborted_writer_leaves_every_record_readable(self, tmp_path):
        # A run killed mid-stream (OOM, SIGKILL, crash) must not lose
        # telemetry: each record hits the OS before the next emit, so
        # os._exit without close loses nothing.
        path = tmp_path / "aborted.jsonl"
        import repro

        src_dir = str(Path(repro.__file__).parents[1])
        script = (
            "import os, sys\n"
            f"sys.path.insert(0, {repr(src_dir)})\n"
            "from repro.obs import JsonlSink\n"
            f"sink = JsonlSink({repr(str(path))})\n"
            "for i in range(25):\n"
            "    sink.emit({'kind': 'counter', 'name': 'c', 'value': i})\n"
            "os._exit(1)  # simulate a hard crash: no close(), no atexit\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 1, result.stderr
        records = read_jsonl(path)
        assert len(records) == 25
        assert [r["value"] for r in records] == list(range(25))

    def test_killed_daemon_leaves_counters_at_most_one_tick_stale(self, tmp_path):
        # What a crash can lose, stated as a test: counters and gauges
        # are written once per tick, in the tick's `trace` record, so
        # SIGKILL at any moment leaves the last counters written at most
        # one tick behind the last `trace` (which, like events and
        # provenance, is written as it happens).
        path = tmp_path / "killed.jsonl"
        import repro

        src_dir = str(Path(repro.__file__).parents[1])
        script = (
            "import sys\n"
            f"sys.path.insert(0, {repr(src_dir)})\n"
            "import numpy as np, repro\n"
            "from repro.obs import JsonlSink, TraceCollector, get_registry\n"
            "from repro.service import GeneratorSource, ServiceRuntime\n"
            "values = repro.alibaba_like_trace(num_steps=2000, seed=0).values\n"
            "forecaster = repro.SeasonalNaiveForecaster(12, season=144).fit(values[:288])\n"
            "planner = repro.RobustPredictiveAutoscaler(\n"
            "    forecaster, 60.0, repro.FixedQuantilePolicy(0.9))\n"
            "runtime = repro.AutoscalingRuntime(\n"
            "    planner=planner, context_length=144, horizon=12, threshold=60.0,\n"
            "    replan_every=6, start_tick=288)\n"
            f"get_registry().add_sink(JsonlSink({repr(str(path))}))\n"
            "ServiceRuntime(\n"
            "    runtime, GeneratorSource(values[288:]), tick_interval=0.002,\n"
            "    tracer=TraceCollector(8)).serve_forever()\n"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not path.exists() or path.read_text().count('"trace"') < 200:
                assert process.poll() is None, process.stderr.read()
                assert time.monotonic() < deadline, "daemon wrote no telemetry"
                time.sleep(0.02)
        finally:
            process.kill()
            process.wait(timeout=10)
            process.stderr.close()

        records = read_jsonl(path)  # drops a half-written last line
        traces = [r for r in records if r["kind"] == "trace"]
        flushed = [r for r in records if "counters" in r]
        assert [t["trace_id"] for t in traces] == list(range(288, 288 + len(traces)))
        assert len(traces) - flushed[-1]["counters"]["service.ticks"] in (0, 1)
        assert len(traces) - len(flushed) in (0, 1)
        # Fallback activations and plans are events: none is missing for
        # a tick whose trace made it to the file.
        planned = {r["time_index"] for r in records if r["kind"] == "provenance"}
        cold = set(range(288, 288 + 144))
        replans = set(range(288 + 144, 288 + len(traces) - 1, 6))
        assert cold | replans <= planned


class TestReadJsonl:
    def test_skips_malformed_and_blank_lines(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        path.write_text(
            '{"kind": "counter", "name": "a", "value": 1}\n'
            "not json at all\n"
            "\n"
            "[1, 2, 3]\n"
            '{"kind": "gauge", "name": "b", "value": 2}\n'
        )
        records = read_jsonl(path)
        assert [r["name"] for r in records] == ["a", "b"]


class TestSummarizeRecords:
    def _capture(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        return registry, sink

    def test_counter_last_value_wins(self):
        registry, sink = self._capture()
        counter = registry.counter("hits")
        for _ in range(5):
            counter.inc()
            registry.flush()
        assert len(sink.records) == 5
        summary = summarize_records(sink.records)
        assert summary.counters["hits"] == 5.0

    def test_counter_total_sums_label_sets(self):
        registry, sink = self._capture()
        registry.counter("steps", strategy="a").inc(3)
        registry.counter("steps", strategy="b").inc(4)
        registry.counter("stepsize").inc(100)  # prefix, not the same counter
        registry.flush()
        summary = summarize_records(sink.records)
        assert summary.counter_total("steps") == 7.0

    def test_gauge_and_histogram_and_span(self):
        registry, sink = self._capture()
        registry.gauge("nodes").set(3)
        registry.flush()
        registry.gauge("nodes").set(5)
        registry.histogram("lat").observe(1.0)
        registry.histogram("lat").observe(3.0)
        with registry.span("plan"):
            pass
        registry.flush()
        summary = summarize_records(sink.records)
        assert summary.gauges["nodes"] == 5.0
        assert summary.histograms["lat"].count == 2
        assert summary.histograms["lat"].mean == 2.0
        assert summary.spans["plan"].count == 1
        assert summary.records == len(sink.records)

    def test_format_summary_sections(self):
        registry, sink = self._capture()
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.histogram("h").observe(2.0)
        with registry.span("s"):
            pass
        registry.flush()
        text = format_summary(summarize_records(sink.records))
        assert "skipped records" not in text
        assert "phase timings (spans)" in text
        assert "counters" in text
        assert "gauges (last value)" in text
        assert "histograms" in text

    def test_round_trips_json_encoding(self):
        registry, sink = self._capture()
        registry.counter("c", k="v").inc()
        registry.flush()
        encoded = [json.loads(json.dumps(r)) for r in sink.records]
        summary = summarize_records(encoded)
        assert summary.counters["c{k=v}"] == 1.0

    def test_spans_inside_trace_records_fill_the_same_span_table(self):
        registry, sink = self._capture()
        tracer = TraceCollector()
        registry.set_tracer(tracer)
        for tick in range(3):
            tracer.begin(tick)
            with registry.span("step"):
                with registry.span("plan", model="mlp"):
                    pass
            registry.emit_event("trace", f"tick:{tick}", **tracer.end())
        with registry.span("step"):  # outside any trace: its own line
            pass
        assert [r["kind"] for r in sink.records] == ["trace"] * 3 + ["span"]
        summary = summarize_records(sink.records)
        snapshot = registry.snapshot()["spans"]
        assert {k: s.count for k, s in summary.spans.items()} == {
            "step": 4, "step/plan{model=mlp}": 3
        }
        for key, span in summary.spans.items():
            assert span.count == snapshot[key]["count"]
            assert span.total_s == pytest.approx(snapshot[key]["sum"], rel=1e-12)
            assert span.max_s == snapshot[key]["max"]

    def test_per_update_lines_of_an_older_file_are_skipped_not_half_read(self):
        summary = summarize_records(
            [
                {"kind": "counter", "name": "c", "labels": {}, "delta": 1.0, "value": 1.0},
                {"kind": "gauge", "name": "g", "labels": {}, "value": 2.0},
                {"kind": "service", "name": "service.step", "labels": {}, "tick": 3},
            ]
        )
        assert summary.counters == {} and summary.gauges == {}
        assert summary.unknown_kinds == {"counter": 1, "gauge": 1, "service": 1}
        assert "skipped records of unknown kind" in format_summary(summary)

    def test_non_finite_gauge_written_as_null_is_left_out(self, tmp_path):
        path = tmp_path / "nan.jsonl"
        registry = MetricsRegistry()
        with JsonlSink(path) as sink:
            registry.add_sink(sink)
            registry.gauge("loss").set(float("nan"))
            registry.gauge("nodes").set(2)
            registry.remove_sink(sink)
        summary = summarize_records(read_jsonl(path))
        assert summary.gauges == {"nodes": 2.0}
        assert "nodes" in format_summary(summary)

    def test_training_section_groups_by_model(self):
        registry, sink = self._capture()
        for model, seconds in (("DeepARForecaster", 0.010), ("TFTForecaster", 0.030)):
            hist = registry.histogram("forecast.batch_seconds", model=model)
            hist.observe(seconds)
            hist.observe(seconds)
        registry.flush()
        text = format_summary(summarize_records(sink.records))
        assert "training (per model)" in text
        deepar_line = next(l for l in text.splitlines() if "DeepARForecaster" in l)
        tft_line = next(l for l in text.splitlines() if "TFTForecaster" in l)
        assert deepar_line.split()[1] == "2" and "10.00" in deepar_line
        assert "30.00" in tft_line

    def test_training_section_absent_without_fit_metrics(self):
        registry, sink = self._capture()
        registry.counter("c").inc()
        text = format_summary(summarize_records(sink.records))
        assert "training (per model)" not in text


def health_stream():
    """A minimal but complete model-health event stream."""
    return [
        {
            "kind": "metrics",
            "name": "registry",
            "labels": {},
            "counters": {"noise": 1.0},
            "gauges": {},
        },
        {
            "kind": "model_health",
            "name": "monitor.window",
            "window": 0,
            "start_index": 0,
            "end_index": 11,
            "steps": 12,
            "coverage": {"0.5": 0.5, "0.9": 0.92},
            "calibration_error": 0.02,
            "wql": {"0.5": 0.1, "0.9": 0.04},
            "mean_wql": 0.07,
            "mape": 0.12,
            "drift_score": 0.4,
            "drift_events": 0,
            "violation_rate": 0.0,
        },
        {
            "kind": "model_health",
            "name": "monitor.drift",
            "time_index": 17,
            "score": 14.2,
            "direction": "up",
        },
        {
            "kind": "alert",
            "name": "coverage@0.9 < 0.75 for 2",
            "severity": "warning",
            "message": "coverage@0.9 < 0.75 for 2: value 0.3 < 0.75",
            "window": 1,
            "end_index": 23,
            "value": 0.3,
        },
        {
            "kind": "provenance",
            "name": "runtime.decision",
            "time_index": 12,
            "source": "predictive",
            "tau_min": 0.9,
            "tau_max": 0.9,
            "uncertainty_mean": 3.1,
            "bound_max": 120.0,
            "ramp_clipped_steps": 2,
            "nodes_first": 4,
        },
    ]


class TestModelHealthSummary:
    def test_dispatch_by_kind_and_name(self):
        health = summarize_model_health(health_stream())
        assert len(health.windows) == 1
        assert len(health.drifts) == 1
        assert len(health.alerts) == 1
        assert len(health.provenance) == 1

    def test_falsy_when_stream_has_no_health_records(self):
        assert not summarize_model_health(
            [{"kind": "histogram", "name": "h", "labels": {}, "value": 1.0}]
        )
        assert summarize_model_health(health_stream())

    def test_format_renders_all_sections(self):
        text = format_model_health(summarize_model_health(health_stream()))
        assert "model health" in text
        assert "calibration over time" in text
        assert "cov@0.9" in text
        assert "0.920" in text
        assert "drift events" in text
        assert "t=17     score=14.20    direction=up" in text
        assert "alerts" in text
        assert "coverage@0.9 < 0.75 for 2" in text
        assert "decisions" in text
        assert "predictive" in text

    def test_format_caps_provenance_rows(self):
        health = summarize_model_health(health_stream())
        base = health.provenance[0]
        health.provenance = [dict(base, time_index=t) for t in range(40)]
        text = format_model_health(health, max_provenance=5)
        assert "t=39" in text or "39" in text
        shown = [l for l in text.splitlines() if "predictive" in l]
        assert len(shown) == 5

    def test_survives_json_round_trip(self):
        encoded = [json.loads(json.dumps(r)) for r in health_stream()]
        text = format_model_health(summarize_model_health(encoded))
        assert "calibration over time" in text
