"""Deterministic process fan-out for evaluation workloads.

Backtests and the benchmark runner share one shape: a list of independent
items, a read-only context (a fitted forecaster) and the requirement that results come back **in item order** and
**bit-identical** to a serial run.  :func:`parallel_map` provides that on one
module-level ``concurrent.futures.ProcessPoolExecutor`` (``spawn`` context,
so nothing is inherited from the parent), created on first use, kept between
calls, replaced by a wider one when a call asks for more workers, and shut
down at interpreter exit.

* ``items`` are split into at most ``n_jobs`` contiguous near-even chunks,
  one task per worker.  ``(fn, context)`` is pickled once per call and
  unpickled once per chunk, so task-side mutations never reach the next call.
* Each chunk runs under its own ``MetricsRegistry`` and, when the caller
  has a live trace, a ``TraceCollector`` issuing span ids ``w<chunk>.<n>``.
  The parent merges them in item order and re-roots worker spans under its
  open span: ``n_jobs`` does not change what the registry reports.
* A chunk stops at its first failing item, and the lowest-index failure is
  re-raised once every chunk has replied.  Replies are pickled inside the
  worker, so a result or exception that cannot cross the process boundary
  is an error naming its item, never a hang.
* A worker that dies mid-chunk surfaces at once as ``BrokenProcessPool`` (a
  ``RuntimeError``); the executor is dropped, the next call starts a new one.

Determinism is a *joint* contract: the task function - module-level, taking
``(context, item)`` - must derive any randomness from its arguments alone
(``backtest`` reseeds the sampler per decision window).
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

__all__ = ["parallel_map", "shutdown_shared_pool"]

# This many items or fewer run in-process: they never win back the IPC cost.
_SERIAL_MAX_ITEMS = 2

_EXECUTOR: ProcessPoolExecutor | None = None
_EXECUTOR_WORKERS = 0


def _chunk_evenly(items: Sequence[Any], parts: int) -> list[list[Any]]:
    """At most ``parts`` contiguous chunks whose sizes differ by at most one.

    The layout depends only on ``(len(items), parts)``, never on scheduling.
    """
    parts = max(1, min(parts, len(items)))
    base, extra = divmod(len(items), parts)
    bounds = [rank * base + min(rank, extra) for rank in range(parts + 1)]
    return [list(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _picklable(obj: Any) -> bool:
    """Whether ``obj`` survives the round trip to the parent process."""
    try:
        pickle.loads(pickle.dumps(obj))
    except Exception:
        return False
    return True


def _run_chunk(payload: bytes, rank: int, chunk: list[tuple[int, Any]], trace_ctx) -> bytes:
    """Worker side: run ``[(item_index, item), ...]`` under a fresh context.

    Returns pickled ``("ok", results, registry_state)`` or ``("error", index, exc)``.
    """
    from .obs.registry import MetricsRegistry, using_registry
    from .obs.trace import TraceCollector

    index, results = chunk[0][0], []
    try:
        fn, context = pickle.loads(payload)
        registry = MetricsRegistry()
        if trace_ctx is not None:
            collector = TraceCollector(max_traces=4, id_prefix=f"w{rank}.")
            collector.begin(trace_ctx[0], parent_id=trace_ctx[1])
            registry.set_tracer(collector)
        with using_registry(registry):
            for index, item in chunk:
                results.append(fn(context, item))
        if trace_ctx is not None:
            collector.end("ok")
        reply = ("ok", results, registry.state_dict())
    except BaseException as exc:  # like the executor itself: ship it, keep serving
        if not _picklable(exc):
            exc = RuntimeError(f"item {index} raised an unpicklable exception: {exc!r}")
        reply = ("error", index, exc)
    try:
        return pickle.dumps(reply)
    except Exception as exc:  # only an "ok" reply gets here: name the culprit
        bad = (i for (i, _), r in zip(chunk, results) if not _picklable(r))
        index = next(bad, index)
        error = RuntimeError(f"result of item {index} cannot be pickled: {exc!r}")
        return pickle.dumps(("error", index, error))


def _executor(workers: int) -> ProcessPoolExecutor:
    """The shared executor, replaced by a wider one when needed."""
    global _EXECUTOR, _EXECUTOR_WORKERS
    if _EXECUTOR_WORKERS < workers:  # also the first call: no executor, 0 workers
        shutdown_shared_pool()
        spawn = multiprocessing.get_context("spawn")
        _EXECUTOR, _EXECUTOR_WORKERS = ProcessPoolExecutor(workers, mp_context=spawn), workers
    return _EXECUTOR


def shutdown_shared_pool() -> None:
    """Stop the shared executor's workers; the next call starts new ones."""
    global _EXECUTOR, _EXECUTOR_WORKERS
    executor, _EXECUTOR, _EXECUTOR_WORKERS = _EXECUTOR, None, 0
    if executor is not None:
        executor.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_shared_pool)


def parallel_map(
    fn: Callable[[Any, Any], Any],
    items: Iterable[Any],
    context: Any = None,
    n_jobs: int = 1,
    merge_into=None,
) -> list[Any]:
    """Map ``fn(context, item)`` over ``items``; results in item order.

    ``n_jobs=1`` (and any workload of two items or fewer) runs in-process
    against the ambient registry; ``n_jobs >= 2`` runs one chunk of items
    per worker, and worker telemetry is merged into ``merge_into``
    (default: the ambient registry at call time).
    """
    work = list(items)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if n_jobs == 1 or len(work) <= _SERIAL_MAX_ITEMS:
        return [fn(context, item) for item in work]

    from .obs import get_registry

    registry = merge_into if merge_into is not None else get_registry()
    tracer = registry.tracer
    live = tracer is not None and tracer.active
    trace_ctx = (tracer.trace_id, tracer.current_span_id) if live else None
    payload = pickle.dumps((fn, context), protocol=pickle.HIGHEST_PROTOCOL)
    chunks = _chunk_evenly(list(enumerate(work)), n_jobs)
    try:
        executor = _executor(len(chunks))
        futures = [
            executor.submit(_run_chunk, payload, rank, chunk, trace_ctx)
            for rank, chunk in enumerate(chunks)
        ]
        replies = [pickle.loads(future.result()) for future in futures]
    except BrokenProcessPool as exc:
        shutdown_shared_pool()
        raise BrokenProcessPool(
            f"a worker process died while parallel_map ran {len(work)} items in "
            f"{len(chunks)} chunks; the pool was discarded, the next call starts a new one"
        ) from exc
    # Contiguous chunks that stop at their first failure: the first error
    # reply in chunk order is the lowest-index failure overall.
    for reply in replies:
        if reply[0] == "error":
            raise reply[2]
    # Merge in item order; re-root worker spans under the open span (a worker's
    # "predict" becomes "backtest/predict", as a serial run records it).
    prefix = registry.current_span_path
    results: list[Any] = []
    for _, chunk_results, state in replies:
        registry.merge_state_dict(state, span_prefix=prefix)
        results.extend(chunk_results)
    return results
