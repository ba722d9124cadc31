"""Determinism contract of the parallel evaluation layer.

``backtest`` and ``parallel_map`` with ``n_jobs > 1`` must return results
bit-identical to (and in the same order as) ``n_jobs=1`` — randomness is
derived from (seed, window), never from worker scheduling.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.evaluation.backtest import backtest
from repro.forecast import DeepARForecaster, TrainingConfig
from repro.parallel import parallel_map, shutdown_shared_pool

CONTEXT, HORIZON = 36, 12


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    series = 100 + 20 * np.sin(np.arange(700) * 2 * np.pi / 144) + rng.normal(0, 3, 700)
    forecaster = DeepARForecaster(
        CONTEXT, HORIZON, hidden_size=8, num_layers=1, num_samples=20,
        config=TrainingConfig(epochs=1, seed=0),
    ).fit(series[:550])
    return forecaster, series[550:]


def _run(forecaster, test_values, n_jobs):
    return backtest(
        forecaster, test_values, CONTEXT, HORIZON, (0.1, 0.5, 0.9),
        series_start_index=550, n_jobs=n_jobs,
    )


def test_backtest_parallel_bit_identical_to_serial(fitted):
    forecaster, test_values = fitted
    serial = _run(forecaster, test_values, n_jobs=1)
    parallel = _run(forecaster, test_values, n_jobs=4)
    assert serial.points == parallel.points
    assert len(serial.forecasts) == len(parallel.forecasts) > 1
    for a, b in zip(serial.forecasts, parallel.forecasts):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(serial.merged_actual, parallel.merged_actual)
    assert np.array_equal(serial.merged_level(0.5), parallel.merged_level(0.5))


def test_backtest_deterministic_across_repeat_runs(fitted):
    forecaster, test_values = fitted
    first = _run(forecaster, test_values, n_jobs=1)
    second = _run(forecaster, test_values, n_jobs=1)
    for a, b in zip(first.forecasts, second.forecasts):
        assert np.array_equal(a.values, b.values)


def _square(context, item):
    return context["scale"] * item * item


def test_parallel_map_orders_results():
    items = list(range(8))
    serial = parallel_map(_square, items, {"scale": 3})
    fanned = parallel_map(_square, items, {"scale": 3}, n_jobs=3)
    assert serial == fanned == [3 * i * i for i in items]


def test_parallel_map_rejects_bad_n_jobs():
    with pytest.raises(ValueError):
        parallel_map(_square, [1], {"scale": 1}, n_jobs=0)


# -- persistent pool ------------------------------------------------------


def _pid_task(context, item):
    return os.getpid()


def _mutate_context(context, item):
    context["log"].append(item)
    return len(context["log"])


def _fail_on_three(context, item):
    if item == 3:
        raise ValueError("item three is cursed")
    return item * 10


def _fail_on_odd(context, item):
    if item % 2:
        raise ValueError(f"odd item {item}")
    return item


def test_parallel_map_reuses_worker_processes():
    """Repeated calls run on the same workers — no per-call pool spawn."""
    shutdown_shared_pool()  # earlier tests may have left a wider pool behind
    pids = set()
    for _ in range(3):
        seen = set(parallel_map(_pid_task, range(6), None, n_jobs=2))
        assert seen and os.getpid() not in seen
        pids |= seen
    assert len(pids) <= 2  # three calls, still only the two pooled workers


def test_parallel_map_pool_reuse_amortises_startup():
    """After the first call, a pooled call costs ~milliseconds, not the
    seconds a fresh spawn-pool costs: the 14x-slower-than-serial backtest
    regression.  The bound is deliberately loose for CI noise."""
    items = list(range(8))
    parallel_map(_square, items, {"scale": 2}, n_jobs=2)  # warm
    start = time.perf_counter()
    for _ in range(3):
        parallel_map(_square, items, {"scale": 2}, n_jobs=2)
    per_call = (time.perf_counter() - start) / 3
    assert per_call < 1.0, f"pooled call took {per_call:.2f}s — pool not reused?"


def test_parallel_map_auto_serial_threshold():
    """Two items or fewer never start a pool, whatever n_jobs says."""
    shutdown_shared_pool()
    pids = parallel_map(_pid_task, [1, 2], None, n_jobs=4)
    assert pids == [os.getpid()] * 2
    assert multiprocessing.active_children() == []


def test_parallel_map_context_isolated_between_calls():
    """Task-side context mutations never leak into the next call."""
    context = {"log": []}
    first = parallel_map(_mutate_context, range(4), context, n_jobs=2)
    second = parallel_map(_mutate_context, range(4), context, n_jobs=2)
    # Each chunk starts from the pristine payload: two chunks of two.
    assert first == second == [1, 2, 1, 2]
    assert context["log"] == []  # parent copy untouched


def test_parallel_map_worker_error_propagates_and_pool_survives():
    with pytest.raises(ValueError, match="cursed"):
        parallel_map(_fail_on_three, range(6), None, n_jobs=2)
    # The failed call drained cleanly; the pool keeps working.
    assert parallel_map(_square, [1, 2, 3], {"scale": 1}, n_jobs=2) == [1, 4, 9]


def test_parallel_map_raises_the_lowest_index_error():
    """Items 1, 3 and 5 fail in two different chunks; item 1 wins."""
    with pytest.raises(ValueError, match="odd item 1"):
        parallel_map(_fail_on_odd, range(6), None, n_jobs=2)


# -- hostile tasks: dead workers, replies that cannot cross the boundary --


def _kill_self_on_four(context, item):
    if item == 4:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def test_worker_killed_mid_chunk_is_a_prompt_error_and_the_next_call_works():
    parallel_map(_square, range(6), {"scale": 1}, n_jobs=2)  # warm: time the failure, not spawn
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="worker process.*died"):
        parallel_map(_kill_self_on_four, range(6), None, n_jobs=2)
    elapsed = time.perf_counter() - start
    # The executor watches its workers' sentinels (~10 ms measured); the
    # hand-rolled pool it replaced polled liveness once a second.
    assert elapsed < 1.0, f"dead worker took {elapsed:.2f}s to surface"
    assert parallel_map(_square, range(6), {"scale": 2}, n_jobs=2) == [
        2 * i * i for i in range(6)
    ]


class _RefusesToPickle(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


class _RefusesToUnpickle(Exception):
    """Pickles fine, cannot be rebuilt: ``args`` no longer match ``__init__``."""

    def __init__(self, left, right):
        super().__init__(f"{left}-{right}")


def _hostile_on_four(context, item):
    if item != 4:
        return item
    if context == "result":
        return lambda: None  # a result that cannot be pickled
    if context == "dumps":
        raise _RefusesToPickle("boom")
    raise _RefusesToUnpickle("bo", "om")


@pytest.mark.parametrize("kind", ["result", "dumps", "loads"])
def test_unpicklable_reply_is_an_error_naming_the_item_not_a_hang(kind):
    with pytest.raises(RuntimeError, match="item 4"):
        parallel_map(_hostile_on_four, range(6), kind, n_jobs=2)
    assert parallel_map(_square, [1, 2, 3], {"scale": 1}, n_jobs=2) == [1, 4, 9]


def test_backtest_repeated_parallel_calls_stay_deterministic(fitted):
    forecaster, test_values = fitted
    runs = [_run(forecaster, test_values, n_jobs=2) for _ in range(3)]
    for other in runs[1:]:
        for a, b in zip(runs[0].forecasts, other.forecasts):
            assert np.array_equal(a.values, b.values)


# -- tracing across the pool ----------------------------------------------


def _traced_run(forecaster, test_values, n_jobs):
    from repro.obs import (
        InMemorySink,
        MetricsRegistry,
        TraceCollector,
        using_registry,
    )

    registry = MetricsRegistry(sinks=[InMemorySink()])
    collector = TraceCollector()
    registry.set_tracer(collector)
    collector.begin(0)
    with using_registry(registry):
        result = _run(forecaster, test_values, n_jobs=n_jobs)
    return result, collector.end()


def test_backtest_results_identical_with_tracing_attached(fitted):
    """Tracing observes, never perturbs: n_jobs=1 == n_jobs=2 bit-for-bit."""
    forecaster, test_values = fitted
    serial, serial_trace = _traced_run(forecaster, test_values, n_jobs=1)
    fanned, fanned_trace = _traced_run(forecaster, test_values, n_jobs=2)
    assert serial.points == fanned.points
    for a, b in zip(serial.forecasts, fanned.forecasts):
        assert np.array_equal(a.values, b.values)
    # Same span names either way: re-rooting makes a worker's "predict"
    # land where the serial run records it.
    names = lambda t: sorted(s["name"] for s in t["spans"])  # noqa: E731
    assert names(serial_trace) == names(fanned_trace)


def test_worker_spans_rerooted_into_parent_trace(fitted):
    forecaster, test_values = fitted
    result, trace = _traced_run(forecaster, test_values, n_jobs=2)
    assert trace["status"] == "ok"
    by_name = {}
    for span in trace["spans"]:
        by_name.setdefault(span["name"], []).append(span)
    (backtest_span,) = by_name["backtest"]
    predicts = by_name["backtest/predict"]
    assert len(predicts) == len(result.points)
    worker_spans = [s for s in predicts if s["span_id"].startswith("w")]
    assert worker_spans  # at least some windows really crossed the pool
    for span in worker_spans:
        assert span["parent_id"] == backtest_span["span_id"]
        assert span["status"] == "ok"
    # Deterministic ids keyed by (chunk, position-in-chunk): windows are
    # batched one contiguous chunk per worker, and each chunk's predict
    # spans count up from 1 — nothing depends on worker scheduling.
    # 9 windows on 2 workers = chunks of 5 and 4.
    assert {s["span_id"] for s in worker_spans} == {
        "w0.1", "w0.2", "w0.3", "w0.4", "w0.5", "w1.1", "w1.2", "w1.3", "w1.4",
    }
