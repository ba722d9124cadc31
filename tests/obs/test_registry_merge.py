"""Cross-process registry state: state_dict / merge_state_dict.

Workers in :mod:`repro.parallel` record telemetry into a fresh registry
and ship its ``state_dict()`` back; the parent merges it.  These tests
pin the merge semantics: counters add, gauges take the last value,
histogram moments merge exactly, reservoirs merge deterministically,
and span histograms re-root under the parent's open spans.
"""

from __future__ import annotations

import json
import pickle

import numpy as np

from repro.obs import MetricsRegistry
from repro.parallel import parallel_map


def _worker_state(values=(1.0, 2.0, 3.0)):
    worker = MetricsRegistry()
    worker.counter("windows", model="deepar").inc(4)
    worker.gauge("loss").set(0.25)
    for v in values:
        worker.histogram("latency").observe(v)
    with worker.span("predict"):
        pass
    return worker.state_dict()


def test_state_dict_is_picklable_and_plain():
    state = _worker_state()
    assert pickle.loads(pickle.dumps(state)) == state
    assert set(state) == {"counters", "gauges", "histograms"}


def test_counters_add_and_gauges_set():
    parent = MetricsRegistry()
    parent.counter("windows", model="deepar").inc(1)
    parent.merge_state_dict(_worker_state())
    parent.merge_state_dict(_worker_state())
    assert parent.counter("windows", model="deepar").value == 9.0
    assert parent.gauge("loss").value == 0.25


def test_histogram_moments_merge_exactly():
    parent = MetricsRegistry()
    parent.histogram("latency").observe(10.0)
    parent.merge_state_dict(_worker_state(values=(1.0, 2.0, 3.0)))
    hist = parent.histogram("latency")
    assert hist.count == 4
    assert hist.sum == 16.0
    assert hist.min == 1.0
    assert hist.max == 10.0


def test_reservoir_merge_is_deterministic():
    def merged():
        parent = MetricsRegistry()
        hist = parent.histogram("latency", reservoir_size=8)
        for v in range(20):
            hist.observe(float(v))
        parent.merge_state_dict(_worker_state(values=tuple(float(v) for v in range(50))))
        return parent.histogram("latency", reservoir_size=8).quantile([0.1, 0.5, 0.9])

    assert np.array_equal(merged(), merged())


def test_overflowed_histogram_round_trips_and_keeps_sampling():
    source = MetricsRegistry()
    hist = source.histogram("latency", reservoir_size=8)
    for v in range(100):
        hist.observe(float(v))
    state = json.loads(json.dumps(source.state_dict()))
    (entry,) = state["histograms"]
    assert set(entry) == {
        "name", "labels", "count", "sum", "min", "max", "reservoir", "reservoir_size"
    }

    restored = MetricsRegistry()
    restored.merge_state_dict(state)
    copy = restored.histogram("latency", reservoir_size=8)
    assert copy.summary() == hist.summary()
    assert restored.state_dict() == source.state_dict()

    # The restored histogram resumes at count 100, not at a fresh start:
    # a uniform sample of 200 values holds about 4 of the second hundred,
    # where a reservoir that believed itself new would hold almost only those.
    for v in range(100, 200):
        copy.observe(float(v))
    kept_new = int((copy._reservoir >= 100).sum())
    assert copy.count == 200
    assert 1 <= kept_new <= 7


def test_span_histograms_reroot_under_open_spans():
    parent = MetricsRegistry()
    with parent.span("backtest"):
        parent.merge_state_dict(_worker_state(), span_prefix=parent.current_span_path)
    spans = parent.snapshot()["spans"]
    assert "backtest/predict" in spans
    assert "predict" not in spans


def test_merge_without_prefix_keeps_names():
    parent = MetricsRegistry()
    parent.merge_state_dict(_worker_state())
    assert "predict" in parent.snapshot()["spans"]


def test_zero_value_counters_not_interned():
    worker = MetricsRegistry()
    worker.counter("never_incremented")
    parent = MetricsRegistry()
    parent.merge_state_dict(worker.state_dict())
    assert parent.snapshot()["counters"] == {}


def _observe(context, item):
    from repro.obs import get_registry

    get_registry().counter("items").inc()
    get_registry().histogram("value").observe(float(item))
    return item


def test_parallel_map_merges_worker_telemetry():
    parent = MetricsRegistry()
    results = parallel_map(_observe, [1, 2, 3, 4], n_jobs=2, merge_into=parent)
    assert results == [1, 2, 3, 4]
    assert parent.counter("items").value == 4.0
    hist = parent.histogram("value")
    assert hist.count == 4
    assert hist.sum == 10.0
