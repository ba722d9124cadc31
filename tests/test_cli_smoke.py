"""End-to-end CLI smoke tests: --telemetry capture and the report command."""

import json

import pytest

from repro.cli import main

EVALUATE_ARGS = [
    "evaluate", "--trace", "alibaba", "--days", "5", "--model", "naive",
    "--context", "144", "--horizon", "36", "--quantile", "0.9",
]


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class TestEvaluateWithTelemetry:
    def test_closed_loop_run_streams_events(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.jsonl"
        code = main(EVALUATE_ARGS + ["--telemetry", str(telemetry)])
        assert code == 0
        out = capsys.readouterr().out
        assert "under-provisioning" in out
        assert "planning decisions" in out
        assert "QoS violations" in out

        records = read_events(telemetry)
        assert records
        kinds = [r["kind"] for r in records]
        assert {"metrics", "span"} <= set(kinds)
        # Counters and gauges are flushed once, as the run's last record.
        assert kinds.count("metrics") == 1 and kinds[-1] == "metrics"
        counters, gauges = records[-1]["counters"], records[-1]["gauges"]
        # Closed loop: runtime decisions and fallback, simulator replay.
        assert counters["runtime.decisions{source=predictive}"] >= 1
        assert counters["runtime.fallback_activations"] >= 1
        assert "simulator.intervals" in counters
        assert "runtime.nodes_requested" in gauges
        names = {r["name"] for r in records}
        assert "runtime.step/plan/planner" in names  # span path
        assert all("ts" in r for r in records)

    def test_no_telemetry_flag_writes_nothing(self, tmp_path, capsys):
        code = main(EVALUATE_ARGS)
        assert code == 0
        assert list(tmp_path.iterdir()) == []


class TestReport:
    def test_report_summarises_an_evaluate_run(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.jsonl"
        assert main(EVALUATE_ARGS + ["--telemetry", str(telemetry)]) == 0
        capsys.readouterr()

        code = main(["report", str(telemetry)])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "phase timings (spans)" in out
        assert "runtime.step/plan/planner" in out
        assert "runtime.fallback_activations" in out
        assert "simulator.intervals" in out
        assert "gauges (last value)" in out

    def test_report_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 1

    def test_report_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read telemetry file" in capsys.readouterr().err

    def test_unwritable_telemetry_path_fails_cleanly(self, tmp_path, capsys):
        code = main(
            EVALUATE_ARGS + ["--telemetry", str(tmp_path / "no-dir" / "out.jsonl")]
        )
        assert code == 2
        assert "cannot open telemetry file" in capsys.readouterr().err

    def test_report_skips_malformed_lines(self, tmp_path, capsys):
        path = tmp_path / "dirty.jsonl"
        path.write_text(
            "garbage\n"
            '{"kind": "metrics", "counters": {"kept": 2}, "gauges": {}}\n'
        )
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary (1 records)" in out
        assert "kept" in out

    def test_report_all_garbage_file_fails_with_hint(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\nstill not json\n")
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert "no telemetry records" in err
        assert "interrupted" in err  # hints at a partially-written stream

    def test_report_directory_path_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "cannot read telemetry file" in capsys.readouterr().err

    def test_report_binary_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe\x00\x01binary junk")
        assert main(["report", str(path)]) == 2
        assert "not a text file" in capsys.readouterr().err

    def test_report_notes_unknown_record_kinds(self, tmp_path, capsys):
        """Records from a newer writer are counted, not silently dropped."""
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"kind": "metrics", "counters": {"c": 1}, "gauges": {}}\n'
            '{"kind": "flamegraph", "name": "f"}\n'
            '{"kind": "flamegraph", "name": "g"}\n'
        )
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "skipped records of unknown kind" in out
        assert "flamegraph x2" in out
        assert "newer version" in out

    @pytest.mark.parametrize("kind", ["span", "trace"])
    def test_report_refuses_the_float_seconds_span_shape(self, tmp_path, capsys, kind):
        old_span = {"name": "runtime.step", "span_id": "1", "depth": 0,
                    "start_s": 0.0, "duration_s": 0.02}
        record = ({"kind": "span", **old_span} if kind == "span" else
                  {"kind": "trace", "trace_id": 0, "status": "ok",
                   "duration_s": 0.02, "spans": [old_span]})
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert main(["report", str(path), "--traces", "1"]) == 1
        captured = capsys.readouterr()
        assert "float-seconds span shape" in captured.err
        assert "phase timings" not in captured.out  # no table of zeros


class TestReportTraces:
    def trace_record(self, trace_id):
        return {
            "kind": "trace",
            "trace_id": trace_id,
            "status": "ok",
            "duration_ns": 20_000_000,
            "spans": [
                {"name": "runtime.step", "start_ns": 0, "duration_ns": 20_000_000},
                {"name": "runtime.step/plan", "parent": 0, "start_ns": 0,
                 "duration_ns": 15_000_000},
            ],
        }

    def test_renders_last_n_timelines(self, tmp_path, capsys):
        path = tmp_path / "traced.jsonl"
        path.write_text(
            "".join(json.dumps(self.trace_record(t)) + "\n" for t in range(5))
        )
        assert main(["report", str(path), "--traces", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace 3 [ok]" in out
        assert "trace 4 [ok]" in out
        assert "trace 2 [ok]" not in out  # only the last N render
        assert "runtime.step/plan" in out
        assert "|" in out  # timeline bars, not raw dicts

    def test_no_trace_records_prints_friendly_notice(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        path.write_text(
            '{"kind": "metrics", "counters": {"c": 1}, "gauges": {}}\n'
        )
        assert main(["report", str(path), "--traces", "3"]) == 0
        out = capsys.readouterr().out
        assert "no trace records in this telemetry file" in out

    def test_traces_flag_off_by_default(self, tmp_path, capsys):
        path = tmp_path / "traced.jsonl"
        path.write_text(json.dumps(self.trace_record(9)) + "\n")
        assert main(["report", str(path)]) == 0
        assert "trace 9" not in capsys.readouterr().out


class TestMonitorFlags:
    def test_bad_inject_shift_spec_exits_cleanly(self):
        with pytest.raises(SystemExit, match="START:MAGNITUDE"):
            main(EVALUATE_ARGS + ["--inject-shift", "banana"])

    def test_bad_alert_rule_exits_cleanly(self):
        with pytest.raises(SystemExit, match="cannot parse alert rule"):
            main(EVALUATE_ARGS + ["--monitor", "--alert", "coverage ~ 0.5"])

    def test_an_alert_rule_attaches_the_monitor(self, capsys):
        """``--alert`` without ``--monitor`` used to build no monitor, so the
        rule was silently dropped."""
        assert main(EVALUATE_ARGS + ["--alert", "drift_score > 6"]) == 0
        assert "model health" in capsys.readouterr().out

    def test_compare_slo_attaches_the_monitor(self, capsys):
        """``--slo`` implies ``--monitor`` on ``compare`` too."""
        assert main([
            "compare", "--trace", "google", "--days", "6", "--epochs", "1",
            "--context", "96", "--horizon", "24",
            "--slo", "qos_violation_rate < 0.2 over 48",
        ]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert "cal.err" in header
        assert rows[-1].startswith("TFT-0.95") and "-" not in rows[-1].split()[-2:]


class TestCompareWithTelemetry:
    def test_compare_streams_evaluation_counters(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.jsonl"
        code = main(
            [
                "compare", "--trace", "google", "--days", "6", "--epochs", "1",
                "--context", "96", "--horizon", "24",
                "--telemetry", str(telemetry),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy" in out
        records = read_events(telemetry)
        counters = records[-1]["counters"]
        # Every strategy runs through the runtime, which counts its decisions.
        assert counters["runtime.decisions{source=predictive}"] >= 1
        assert not any(key.startswith("evaluation.") for key in counters)
        names = {r["name"] for r in records}
        assert "runtime.step/plan/planner" in names  # spans
