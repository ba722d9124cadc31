"""Tests for the metric primitives, spans, and the ambient registry."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry, get_registry, using_registry
from repro.obs.registry import set_registry
from repro.obs.sinks import InMemorySink


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("decisions")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(3.0)
        assert counter.value == 4.0

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1.0)

    def test_interned_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("events", strategy="tft")
        b = registry.counter("events", strategy="tft")
        c = registry.counter("events", strategy="naive")
        assert a is b
        assert a is not c

    def test_flat_key_sorts_labels(self):
        counter = MetricsRegistry().counter("c", b="2", a="1")
        assert counter.key == "c{a=1,b=2}"

    def test_events_carry_running_total(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        counter = registry.counter("hits")
        counter.inc()
        assert sink.records == []  # an update is state until it is flushed
        registry.flush()
        counter.inc(2.0)
        counter.inc(0.5)
        registry.flush()
        registry.flush()  # nothing changed: nothing written
        assert [r["kind"] for r in sink.records] == ["metrics", "metrics"]
        assert [r["counters"] for r in sink.records] == [
            {"hits": 1.0},
            {"hits": 3.5},
        ]


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("nodes")
        assert gauge.value is None
        gauge.set(5)
        gauge.add(2)
        assert gauge.value == 7.0

    def test_add_from_unset_starts_at_zero(self):
        gauge = MetricsRegistry().gauge("nodes")
        gauge.add(3)
        assert gauge.value == 3.0

    def test_unchanged_value_is_not_written_again(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        gauge = registry.gauge("nodes")
        gauge.set(4)
        registry.flush()
        gauge.set(4)
        registry.counter("ticks").inc()
        registry.flush()
        gauge.set(5)
        registry.flush()
        assert [r["gauges"] for r in sink.records] == [
            {"nodes": 4.0}, {}, {"nodes": 5.0}
        ]


class TestHistogram:
    def test_exact_moments(self):
        hist = MetricsRegistry().histogram("latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.sum == 10.0
        assert hist.mean == 2.5
        assert hist.min == 1.0
        assert hist.max == 4.0

    def test_quantiles_exact_below_reservoir_size(self):
        hist = MetricsRegistry().histogram("latency")
        values = np.arange(101, dtype=np.float64)
        for v in values:
            hist.observe(v)
        assert hist.quantile(0.5) == pytest.approx(50.0)
        assert hist.quantile(0.9) == pytest.approx(90.0)

    def test_reservoir_quantiles_approximate_beyond_capacity(self):
        hist = MetricsRegistry().histogram("latency", reservoir_size=256)
        rng = np.random.default_rng(0)
        for v in rng.uniform(0, 100, size=10_000):
            hist.observe(v)
        assert hist.count == 10_000
        # Uniform[0, 100]: the sampled median should land near 50.
        assert hist.quantile(0.5) == pytest.approx(50.0, abs=10.0)

    def test_quantile_without_observations_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("empty").quantile(0.5)

    def test_summary_fields(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(1.0)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["p50"] == 1.0

    def test_empty_summary(self):
        assert MetricsRegistry().histogram("h").summary() == {"count": 0, "sum": 0.0}

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 100, 1023, 1024])
    def test_summary_quantiles_equal_per_level_quantiles(self, size):
        # summary() asks np.quantile for the three levels at once; each
        # must equal its own quantile() call to the bit.
        hist = MetricsRegistry().histogram("h", reservoir_size=1024)
        for value in np.random.default_rng(size).lognormal(size=size):
            hist.observe(value)
        summary = hist.summary()
        for key, level in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            assert summary[key] == hist.quantile(level)
            assert type(summary[key]) is float

    def test_summary_without_a_sample_has_no_quantiles(self):
        hist = MetricsRegistry().histogram("h")
        hist.merge_state({"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "reservoir": []})
        summary = hist.summary()
        assert (summary["p50"], summary["p90"], summary["p99"]) == (None, None, None)


class TestSpans:
    def test_span_records_duration_histogram(self):
        registry = MetricsRegistry()
        with registry.span("plan"):
            pass
        snap = registry.snapshot()
        assert snap["spans"]["plan"]["count"] == 1
        assert snap["spans"]["plan"]["max"] >= 0.0

    def test_nested_spans_build_slash_paths(self):
        registry = MetricsRegistry()
        with registry.span("evaluate"):
            with registry.span("plan"):
                with registry.span("forecast"):
                    pass
        spans = registry.snapshot()["spans"]
        assert set(spans) == {"evaluate", "evaluate/plan", "evaluate/plan/forecast"}

    def test_span_stack_unwinds_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                raise RuntimeError("boom")
        with registry.span("after"):
            pass
        assert "after" in registry.snapshot()["spans"]  # not "outer/after"

    def test_span_events_emitted_with_depth(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        with registry.span("a"):
            with registry.span("b", model="tft"):
                pass
        events = [r for r in sink.records if r["kind"] == "span"]
        # Inner span completes (and is emitted) first; its path is its depth.
        assert [e["name"] for e in events] == ["a/b", "a"]
        assert events[0]["labels"] == {"model": "tft"}
        assert "labels" not in events[1]
        assert all(e["duration_ns"] >= 0 for e in events)
        # Both start on one monotonic clock: the outer span starts first
        # and ends last.
        inner, outer = events
        assert outer["start_ns"] <= inner["start_ns"]
        assert (inner["start_ns"] + inner["duration_ns"]
                <= outer["start_ns"] + outer["duration_ns"])

    def test_failed_span_records_error_and_restores_the_stack(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                with registry.span("inner"):
                    raise RuntimeError("boom")
        assert registry.current_span_path is None
        events = {r["name"]: r for r in sink.records if r["kind"] == "span"}
        assert {name: e["status"] for name, e in events.items()} == {
            "outer/inner": "error",
            "outer": "error",
        }
        # The failed spans still count in their histograms.
        assert registry.snapshot()["spans"]["outer/inner"]["count"] == 1

    def test_span_record_schema(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink], time_source=lambda: 7.0)
        with registry.span("plan", model="tft"):
            pass
        (record,) = sink.records
        # A trace span's shape: integers, labels only when set, status
        # only when not ok, no parent outside a trace.
        assert list(record) == [
            "kind", "name", "start_ns", "duration_ns", "labels", "ts"
        ]
        assert record["kind"] == "span"
        assert record["name"] == "plan"
        assert record["labels"] == {"model": "tft"}
        assert isinstance(record["start_ns"], int)
        assert isinstance(record["duration_ns"], int)
        assert record["ts"] == 7.0

    def test_tracer_hooks_called_once_per_span(self):
        class Tracer:
            def __init__(self):
                self.calls = []

            def open_span(self, path, labels):
                self.calls.append(("open", path, dict(labels)))
                return path

            def close_span(self, token, duration, status):
                self.calls.append(("close", token, status))

        tracer = Tracer()
        registry = MetricsRegistry()
        registry.set_tracer(tracer)
        with pytest.raises(KeyError):
            with registry.span("step"):
                with registry.span("plan", model="mlp"):
                    pass
                with registry.span("actuate"):
                    raise KeyError("x")
        assert tracer.calls == [
            ("open", "step", {}),
            ("open", "step/plan", {"model": "mlp"}),
            ("close", "step/plan", "ok"),
            ("open", "step/actuate", {}),
            ("close", "step/actuate", "error"),
            ("close", "step", "error"),
        ]

    def test_span_inside_a_trace_is_written_by_the_trace_only(self):
        from repro.obs import TraceCollector

        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        tracer = TraceCollector()
        registry.set_tracer(tracer)
        with registry.span("before"):  # tracer attached, no trace open
            pass
        tracer.begin(7)
        with registry.span("step"):
            with registry.span("plan"):
                pass
        trace = tracer.end()
        with registry.span("after"):
            pass
        assert [r["name"] for r in sink.records] == ["before", "after"]
        assert [s["name"] for s in trace["spans"]] == ["step", "step/plan"]
        # Either way the duration histograms (and /metrics) see every span.
        assert set(registry.snapshot()["spans"]) == {
            "before", "step", "step/plan", "after"
        }

    def test_a_span_resolves_its_path_per_parent_and_labels(self):
        registry = MetricsRegistry()
        recorded = []
        for _ in range(2):
            with registry.span("step") as step:
                with registry.span("plan", model="a"):
                    assert registry.current_span_path == "step/plan"
                with registry.span("plan", model="b"):
                    pass
            recorded.append(step.seconds)
            with registry.span("plan"):
                assert registry.current_span_path == "plan"
        assert registry.current_span_path is None
        spans = registry.snapshot()["spans"]
        assert {key: span["count"] for key, span in spans.items()} == {
            "step": 2, "step/plan{model=a}": 2, "step/plan{model=b}": 2, "plan": 2,
        }
        # The with-target is the span; it exposes the seconds it recorded.
        assert registry.histogram("span/step").sum == recorded[0] + recorded[1]

    def test_span_closes_on_the_tracer_that_opened_it(self):
        class Tracer:
            closed = 0

            def open_span(self, path, labels):
                return object()

            def close_span(self, token, duration, status):
                self.closed += 1

        first, second = Tracer(), Tracer()
        registry = MetricsRegistry()
        registry.set_tracer(first)
        with registry.span("step"):
            registry.set_tracer(second)
        assert (first.closed, second.closed) == (1, 0)


class TestDetached:
    """Without sinks no event payload is ever built."""

    def test_sinkless_registry_never_reaches_emit(self, monkeypatch):
        registry = MetricsRegistry()
        payloads = []
        monkeypatch.setattr(registry, "_emit", payloads.append)
        registry.counter("decisions", model="tft").inc()
        registry.gauge("nodes").set(4)
        registry.gauge("nodes").add(1)
        registry.histogram("latency").observe(0.5)
        with registry.span("plan"):
            with registry.span("forecast", model="tft"):
                pass
        registry.emit_event("provenance", "decision")
        assert payloads == []
        # ... while the aggregates still moved.
        snap = registry.snapshot()
        assert snap["counters"]["decisions{model=tft}"] == 1.0
        assert snap["gauges"]["nodes"] == 5.0
        assert snap["histograms"]["latency"]["count"] == 1
        assert set(snap["spans"]) == {"plan", "plan/forecast{model=tft}"}

    def test_detached_updates_mark_nothing_and_flush_builds_nothing(
        self, monkeypatch
    ):
        registry = MetricsRegistry()
        payloads = []
        monkeypatch.setattr(registry, "_emit", payloads.append)
        registry.counter("decisions").inc()
        registry.gauge("nodes").set(4)
        assert registry._dirty == {}
        registry.flush()
        assert payloads == []

    def test_attaching_a_sink_later_resumes_events(self):
        registry = MetricsRegistry()
        counter = registry.counter("decisions")
        untouched = registry.counter("untouched")
        counter.inc()
        untouched.inc()
        sink = InMemorySink()
        registry.add_sink(sink)
        counter.inc()
        registry.flush()
        # The running total includes the detached increment; a metric
        # that did not move while attached is not written.
        (record,) = sink.records
        assert record["counters"] == {"decisions": 2.0}
        assert record["gauges"] == {}


class TestRegistry:
    def test_snapshot_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 1.0
        assert snap["gauges"]["g"] == 2.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_events_timestamped_with_injected_clock(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink], time_source=lambda: 123.0)
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        registry.flush()
        assert [r["kind"] for r in sink.records] == ["histogram", "metrics"]
        assert [r["ts"] for r in sink.records] == [123.0, 123.0]

    def test_metrics_record_schema(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink], time_source=lambda: 5.0)
        registry.counter("decisions", source="predictive").inc()
        registry.gauge("nodes").set(3)
        registry.gauge("nodes").add(1)
        registry.flush()
        assert sink.records == [
            {
                "kind": "metrics",
                "name": "registry",
                "labels": {},
                "counters": {"decisions{source=predictive}": 1.0},
                "gauges": {"nodes": 4.0},
                "ts": 5.0,
            }
        ]

    def test_sink_add_remove(self):
        registry = MetricsRegistry()
        sink = InMemorySink()
        registry.add_sink(sink)
        registry.counter("c").inc()
        registry.remove_sink(sink)  # flushes what the sink was owed
        registry.counter("c").inc()
        assert [r["counters"] for r in sink.records] == [{"c": 1.0}]
        assert registry._dirty == {}


class TestEmitEvent:
    def test_noop_without_sinks(self):
        registry = MetricsRegistry()
        registry.emit_event("provenance", "runtime.decision", nodes=[1, 2])
        # Nothing to observe, but must not raise or intern anything.
        assert registry.snapshot()["counters"] == {}

    def test_record_shape_with_sink(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink], time_source=lambda: 9.0)
        registry.emit_event("provenance", "runtime.decision", source="predictive")
        assert sink.records == [
            {
                "kind": "provenance",
                "name": "runtime.decision",
                "labels": {},
                "source": "predictive",
                "ts": 9.0,
            }
        ]

    def test_active_tracks_sinks(self):
        registry = MetricsRegistry()
        assert not registry.active
        sink = InMemorySink()
        registry.add_sink(sink)
        assert registry.active
        registry.remove_sink(sink)
        assert not registry.active


class TestReservoirDeterminism:
    """The histogram reservoir must not depend on PYTHONHASHSEED.

    Regression test: seeding from ``abs(hash(key))`` made the sampled
    quantiles vary from process to process.  The crc32-based seed must
    give identical reservoirs in every interpreter.
    """

    SCRIPT = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.obs import MetricsRegistry\n"
        "h = MetricsRegistry().histogram('lat', reservoir_size=8, shard='a')\n"
        "for i in range(500):\n"
        "    h.observe(float(i))\n"
        "print([h.quantile(q) for q in (0.1, 0.5, 0.9)])\n"
    )

    def _run(self, hash_seed):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_quantiles_identical_across_hash_seeds(self):
        outputs = {self._run(seed) for seed in (0, 1, 4242)}
        assert len(outputs) == 1


class TestReservoirSampling:
    """Past capacity the reservoir stays a uniform sample of everything seen."""

    SIZE, TOTAL, TRIALS = 16, 400, 500

    def _reservoir(self, shard):
        hist = MetricsRegistry().histogram("lat", reservoir_size=self.SIZE, shard=shard)
        for i in range(self.TOTAL):
            hist.observe(float(i))
        return hist._reservoir.copy()

    def test_every_position_is_kept_with_probability_size_over_total(self):
        # Seeds come from crc32(key), so this is one fixed experiment,
        # not a flaky one: 500 histograms, 16 of 400 values kept in each.
        kept = np.zeros(self.TOTAL)
        for trial in range(self.TRIALS):
            reservoir = self._reservoir(str(trial))
            assert len(set(reservoir)) == self.SIZE  # no value kept twice
            kept[reservoir.astype(int)] += 1
        blocks = kept.reshape(8, -1).sum(axis=1)  # 50 positions each
        expected = self.TRIALS * self.SIZE / 8
        sigma = np.sqrt(expected * (1 - self.SIZE / self.TOTAL))
        assert np.all(np.abs(blocks - expected) < 4 * sigma), blocks
        # The values that filled the buffer get no head start.
        head = kept[: self.SIZE].sum()
        expected_head = self.TRIALS * self.SIZE * self.SIZE / self.TOTAL
        assert abs(head - expected_head) < 4 * np.sqrt(expected_head)

    def test_same_key_same_sample_other_key_other_sample(self):
        assert np.array_equal(self._reservoir("a"), self._reservoir("a"))
        assert not np.array_equal(self._reservoir("a"), self._reservoir("b"))

    def test_rng_is_consulted_only_when_a_value_is_kept(self):
        hist = MetricsRegistry().histogram("lat", reservoir_size=self.SIZE)
        for i in range(self.SIZE):
            hist.observe(float(i))
        state = hist._rng.getstate()
        before = hist._reservoir.copy()
        while hist.count + 1 < hist._next_keep:
            hist.observe(-1.0)
        assert hist._rng.getstate() == state
        assert np.array_equal(hist._reservoir, before)
        hist.observe(-2.0)
        assert -2.0 in hist._reservoir


class TestAmbientRegistry:
    def test_default_is_a_registry(self):
        assert isinstance(get_registry(), MetricsRegistry)

    def test_using_registry_scopes_and_restores(self):
        outer = get_registry()
        scoped = MetricsRegistry()
        with using_registry(scoped) as active:
            assert active is scoped
            assert get_registry() is scoped
        assert get_registry() is outer

    def test_set_registry_returns_previous(self):
        original = get_registry()
        replacement = MetricsRegistry()
        previous = set_registry(replacement)
        try:
            assert previous is original
            assert get_registry() is replacement
        finally:
            set_registry(original)

    def test_using_registry_restores_on_exception(self):
        outer = get_registry()
        with pytest.raises(RuntimeError):
            with using_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is outer
