"""TraceCollector lifecycle, registry integration, and timeline rendering."""

import time

import pytest

from repro.obs import (
    MetricsRegistry,
    TraceCollector,
    format_summary,
    render_trace_timeline,
    summarize_records,
    using_registry,
)
from repro.obs.sinks import InMemorySink


class TestLifecycle:
    def test_begin_end_produces_a_trace(self):
        collector = TraceCollector()
        collector.begin(42)
        assert collector.active
        assert collector.trace_id == 42
        trace = collector.end("ok")
        assert not collector.active
        assert trace["trace_id"] == 42
        assert trace["status"] == "ok"
        assert isinstance(trace["duration_ns"], int) and trace["duration_ns"] >= 0
        assert collector.traces_finished == 1
        assert list(collector.finished) == [trace]

    def test_end_without_begin_is_noop(self):
        collector = TraceCollector()
        assert collector.end() is None
        assert collector.traces_finished == 0

    def test_begin_ends_a_dangling_trace(self):
        collector = TraceCollector()
        collector.begin(1)
        collector.begin(2)
        assert collector.traces_finished == 1
        assert collector.finished[-1]["trace_id"] == 1
        assert collector.trace_id == 2

    def test_ring_evicts_oldest(self):
        collector = TraceCollector(max_traces=2)
        for tick in range(4):
            collector.begin(tick)
            collector.end()
        assert [t["trace_id"] for t in collector.finished] == [2, 3]

    def test_invalid_ring_size(self):
        with pytest.raises(ValueError):
            TraceCollector(max_traces=0)

    def test_traces_limit(self):
        collector = TraceCollector()
        for tick in range(5):
            collector.begin(tick)
            collector.end()
        assert [t["trace_id"] for t in collector.traces(2)] == [3, 4]


class TestSpans:
    def test_span_nesting_and_parent_ids(self):
        collector = TraceCollector()
        collector.begin(7)
        outer = collector.open_span("step", {})
        inner = collector.open_span("plan", {})
        assert inner["parent"] == 0  # the index of ``outer`` in the list
        collector.close_span(inner, 100_000, "ok")
        collector.close_span(outer, 200_000, "ok")
        trace = collector.end()
        assert [s["name"] for s in trace["spans"]] == ["step", "plan"]
        assert trace["spans"][0] is outer
        assert "parent" not in outer

    def test_span_ids_are_deterministic(self):
        def run():
            collector = TraceCollector()
            collector.begin(1)
            a = collector.open_span("a", {})
            b = collector.open_span("b", {})
            collector.close_span(b, 0, "ok")
            collector.close_span(a, 0, "ok")
            c = collector.open_span("c", {})
            collector.close_span(c, 0, "ok")
            return [s.get("parent") for s in collector.end()["spans"]]

        # Positions are the ids: they depend on the open / close order only.
        assert run() == run() == [None, 0, None]

    def test_span_shape_is_integers_and_set_fields_only(self):
        collector = TraceCollector()
        collector.begin(1)
        plain = collector.open_span("plain", {})
        collector.close_span(plain, 1_500, "ok")
        labelled = collector.open_span("labelled", {"model": "tft"})
        collector.close_span(labelled, 2_500, "error")
        trace = collector.end()
        assert list(trace) == ["trace_id", "status", "duration_ns", "spans"]
        assert list(plain) == ["name", "start_ns", "duration_ns"]
        assert list(labelled) == ["name", "start_ns", "duration_ns", "labels", "status"]
        assert labelled["labels"] == {"model": "tft"}
        assert labelled["status"] == "error"
        for span in trace["spans"]:
            assert isinstance(span["start_ns"], int)
            assert isinstance(span["duration_ns"], int)
        assert (plain["duration_ns"], labelled["duration_ns"]) == (1_500, 2_500)

    def test_error_status_propagates_to_trace(self):
        collector = TraceCollector()
        collector.begin(1)
        span = collector.open_span("boom", {})
        collector.close_span(span, 0, "error")
        trace = collector.end("ok")
        assert trace["status"] == "error"
        assert trace["spans"][0]["status"] == "error"

    def test_open_spans_closed_as_error_at_end(self):
        collector = TraceCollector()
        collector.begin(1)
        collector.open_span("leaked", {})
        trace = collector.end("error")
        assert trace["spans"][0]["status"] == "error"
        assert trace["spans"][0]["duration_ns"] >= 0

    def test_open_span_outside_trace_returns_none(self):
        collector = TraceCollector()
        assert collector.open_span("orphan", {}) is None
        collector.close_span(None, 0, "ok")  # must not raise


class TestRegistryIntegration:
    def test_registry_spans_feed_the_tracer(self):
        registry = MetricsRegistry(sinks=[InMemorySink()])
        collector = TraceCollector()
        assert registry.set_tracer(collector) is None
        collector.begin(9)
        with using_registry(registry):
            with registry.span("runtime.step"):
                with registry.span("plan"):
                    pass
        trace = collector.end()
        names = [s["name"] for s in trace["spans"]]
        assert names == ["runtime.step", "runtime.step/plan"]
        child = trace["spans"][1]
        assert child["parent"] == 0
        # Histograms still aggregate alongside the trace.
        snap = registry.snapshot()
        assert snap["spans"]["runtime.step/plan"]["count"] == 1

    def test_span_error_status_recorded(self):
        registry = MetricsRegistry(sinks=[InMemorySink()])
        collector = TraceCollector()
        registry.set_tracer(collector)
        collector.begin(1)
        with pytest.raises(RuntimeError):
            with registry.span("explode"):
                raise RuntimeError("boom")
        trace = collector.end()
        assert trace["status"] == "error"
        assert trace["spans"][0]["status"] == "error"

    def test_set_tracer_returns_previous(self):
        registry = MetricsRegistry()
        a, b = TraceCollector(), TraceCollector()
        assert registry.set_tracer(a) is None
        assert registry.set_tracer(b) is a
        assert registry.tracer is b


class TestTimeline:
    def sample_trace(self):
        return {
            "trace_id": 17,
            "status": "ok",
            "duration_ns": 100_000_000,
            "spans": [
                {"name": "runtime.step", "start_ns": 0, "duration_ns": 100_000_000},
                {"name": "plan", "parent": 0, "start_ns": 0, "duration_ns": 80_000_000},
                {"name": "observe", "parent": 0, "start_ns": 90_000_000,
                 "duration_ns": 10_000_000, "status": "error"},
            ],
        }

    def test_header_and_rows(self):
        out = render_trace_timeline(self.sample_trace())
        lines = out.splitlines()
        assert lines[0].startswith("trace 17 [ok]")
        assert "3 spans" in lines[0]
        assert any("runtime.step" in line for line in lines)
        assert any("plan" in line for line in lines)

    def test_critical_path_marked(self):
        out = render_trace_timeline(self.sample_trace())
        starred = [l for l in out.splitlines() if l.startswith("*")]
        assert any("runtime.step" in l for l in starred)
        assert any("plan" in l for l in starred)
        assert not any("observe" in l for l in starred)

    def test_error_span_flagged(self):
        out = render_trace_timeline(self.sample_trace())
        (line,) = [l for l in out.splitlines() if "observe" in l]
        assert line.rstrip().endswith("!")

    def test_empty_trace_renders_header_only(self):
        out = render_trace_timeline(
            {"trace_id": 1, "status": "ok", "duration_ns": 0, "spans": []}
        )
        assert out == "trace 1 [ok] 0us - 0 spans"

    def test_pure_ascii(self):
        out = render_trace_timeline(self.sample_trace())
        out.encode("ascii")  # raises if any non-ASCII slipped in


class TestReport:
    def test_phase_table_is_the_same_from_span_and_trace_lines(self, monkeypatch):
        """One span shape: ``report`` reads a span alone or inside a trace alike."""
        now = [0]
        monkeypatch.setattr(time, "perf_counter_ns", lambda: now[0])

        def work(registry):
            with registry.span("runtime.step"):
                now[0] += 1_000
                with registry.span("plan", model="mlp"):
                    now[0] += 250_000
                with registry.span("observe"):
                    now[0] += 40_000

        alone = InMemorySink()
        work(MetricsRegistry(sinks=[alone]))
        traced = InMemorySink()
        registry = MetricsRegistry(sinks=[traced])
        collector = TraceCollector()
        registry.set_tracer(collector)
        collector.begin(0)
        work(registry)
        trace = collector.end()
        registry.emit_event("trace", "tick:0", **trace)

        assert [r["kind"] for r in alone.records] == ["span"] * 3
        assert [r["kind"] for r in traced.records] == ["trace"]
        from_spans = summarize_records(alone.records)
        from_trace = summarize_records(traced.records)
        assert from_spans.spans == from_trace.spans
        assert from_spans.spans["runtime.step/plan{model=mlp}"].total_s == 250e-6
        table = lambda summary: format_summary(summary).split("phase timings")[1]  # noqa: E731
        assert table(from_spans) == table(from_trace)

