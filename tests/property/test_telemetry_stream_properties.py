"""The telemetry file and ``/metrics`` cannot disagree.

A tick's telemetry is written once: counters and gauges in the
record of the next ``flush()`` (a ``metrics`` record, or the ``trace``
record a daemon tick closes with), a span inside an open trace in that
trace's record, everything else as its own line.  Whatever the
interleaving, replaying the stream through ``summarize_records`` must
rebuild what ``registry.snapshot()`` holds, and no span may be written
twice or not at all.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, TraceCollector, summarize_records
from repro.obs.sinks import InMemorySink

NAMES = ("a", "b", "c")
finite = st.floats(-1e9, 1e9)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.sampled_from(NAMES), st.floats(0.0, 1e6)),
        st.tuples(st.just("set"), st.sampled_from(NAMES), finite),
        st.tuples(st.just("observe"), st.sampled_from(NAMES), finite),
        # One to three nested spans, opened and closed within the step.
        st.tuples(
            st.just("spans"),
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
        ),
        st.tuples(st.just("begin")),
        st.tuples(st.just("end")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("reattach")),
    ),
    max_size=60,
)


def run(registry, tracer, sink, ops):
    """Apply ``ops``; returns the span paths closed outside / inside a trace."""
    outside, inside = Counter(), Counter()

    def end_trace():
        # What the daemon does at the end of a tick: the flush rides in
        # the finished trace's record.
        trace = tracer.end()
        registry.flush({"kind": "trace", **trace})

    for index, (op, *args) in enumerate(ops):
        if op == "inc":
            registry.counter(args[0], shard="x").inc(args[1])
        elif op == "set":
            registry.gauge(args[0]).set(args[1])
        elif op == "observe":
            registry.histogram(args[0]).observe(args[1])
        elif op == "spans":
            closed = inside if tracer.active else outside
            stack = [registry.span(name) for name in args[0]]
            for depth, span in enumerate(stack):
                span.__enter__()
                closed["/".join(args[0][: depth + 1])] += 1
            for span in reversed(stack):
                span.__exit__(None, None, None)
        elif op == "begin":
            if tracer.active:
                end_trace()
            tracer.begin(index)
        elif op == "end":
            if tracer.active:
                end_trace()
        elif op == "flush":
            registry.flush()
        elif op == "reattach":
            registry.remove_sink(sink)
            registry.add_sink(sink)
    if tracer.active:
        end_trace()
    registry.remove_sink(sink)
    return outside, inside


@settings(max_examples=200, deadline=None)
@given(operations)
def test_replayed_stream_equals_the_registry_snapshot(ops):
    sink = InMemorySink()
    registry = MetricsRegistry(sinks=[sink])
    tracer = TraceCollector(max_traces=4)
    registry.set_tracer(tracer)
    outside, inside = run(registry, tracer, sink, ops)

    # Through JSON text, as `report` reads it from the file.
    stream = [json.loads(json.dumps(record)) for record in sink.records]
    summary = summarize_records(stream)
    snapshot = registry.snapshot()

    assert summary.unknown_kinds == {}
    assert summary.counters == snapshot["counters"]
    assert summary.gauges == snapshot["gauges"]
    assert {k: h.count for k, h in summary.histograms.items()} == {
        k: h["count"] for k, h in snapshot["histograms"].items()
    }
    assert {k: s.count for k, s in summary.spans.items()} == {
        k: s["count"] for k, s in snapshot["spans"].items()
    }
    for key, span in summary.spans.items():
        # Same durations, added in stream order instead of closing order.
        assert span.total_s == pytest.approx(snapshot["spans"][key]["sum"], rel=1e-9)

    # Each span is written exactly once, in the place its trace decides.
    own_lines = Counter(r["name"] for r in stream if r["kind"] == "span")
    in_traces = Counter(
        span["name"]
        for record in stream
        if record["kind"] == "trace"
        for span in record["spans"]
    )
    assert own_lines == outside
    assert in_traces == inside
    trace_ids = [r["trace_id"] for r in stream if r["kind"] == "trace"]
    assert len(trace_ids) == len(set(trace_ids))

    # Nothing is owed to a sink that has been removed.
    assert registry._dirty == {}
    # A flush with nothing to say writes nothing.
    assert all(r["counters"] or r["gauges"] for r in stream if r["kind"] == "metrics")
