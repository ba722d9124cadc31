"""Training-side micro-benchmarks -> BENCH_training.json.

One section, which the end-to-end ledger (``benchmarks/e2e``, which owns
fit wall-clock as ``forecast.fit_s`` / ``adaptation.refit_s_p50``) does
not measure:

* **pool_reuse** — repeated small ``backtest(n_jobs=2)`` calls on the
  shared executor against ``n_jobs=1``; records ``pool_startup_ms``
  (worker spawn + first call, paid once per process) and
  ``parallel_speedup`` (serial over reused-pool median), gated like
  ``perf_inference``'s: skipped when ``cpu_count < 2``, a failure below
  1.0 otherwise.

Analytic-vs-tape gradient and fit-trajectory parity is not measured
here: it is a tier-1 test (``tests/nn/test_fastgrad.py``,
``tests/nn/test_tft_fastgrad.py``).

Variants are timed interleaved (a, b, a, b, ...) so clock drift hits
both equally — ratios are stable where absolute numbers are not.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.perf_training --quick \
        --output BENCH_training.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.evaluation.backtest import backtest
from repro.forecast import DeepARForecaster, TrainingConfig
from repro.parallel import shutdown_shared_pool
from repro.traces import STEPS_PER_DAY, alibaba_like_trace

from .perf_inference import (
    interleaved_times,
    parallel_gate_failure,
    parallel_skip_reason,
)

LEVELS = (0.1, 0.5, 0.9)


def bench_pool_reuse(
    forecaster, test_values: np.ndarray, train_length: int, repeats: int, jobs: int
) -> dict:
    """Repeated small parallel backtests on the shared executor.

    ``reused`` calls hit the pool already warm after the first call,
    whose one-time cost is ``pool_startup_ms``; ``serial`` (n_jobs=1) is
    the floor a three-window workload should stay near.
    """
    kwargs = dict(
        context_length=forecaster.context_length,
        horizon=forecaster.horizon,
        levels=LEVELS,
        series_start_index=train_length,
    )

    def serial():
        return backtest(forecaster, test_values, n_jobs=1, **kwargs)

    def reused():
        return backtest(forecaster, test_values, n_jobs=jobs, **kwargs)

    shutdown_shared_pool()
    start = time.perf_counter()
    reused()
    startup_ms = (time.perf_counter() - start) * 1e3

    # Determinism across reuse: pooled calls must equal n_jobs=1.
    base = serial()
    identical = all(
        np.array_equal(a.values, b.values)
        for run in (reused(), reused())
        for a, b in zip(base.forecasts, run.forecasts)
    )
    section = {"jobs": jobs, "deterministic": bool(identical)}
    skipped = parallel_skip_reason()
    if skipped:
        times = interleaved_times({"serial": serial}, repeats)
        return {**times, **section, "skipped": skipped}
    times = interleaved_times({"serial": serial, "reused": reused}, repeats)
    return {
        **times,
        **section,
        "pool_startup_ms": startup_ms,
        "parallel_speedup": times["serial"]["median_ms"] / times["reused"]["median_ms"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perf_training")
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale run: fewer repeats, shorter trace")
    parser.add_argument("--output", default="BENCH_training.json")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per variant (overrides --quick)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count for the pool-reuse benchmark")
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 5)
    days = 8 if args.quick else 12
    context_length, horizon = 72, 72

    print(f"generating {days}-day trace...", file=sys.stderr)
    trace = alibaba_like_trace(num_steps=days * STEPS_PER_DAY, seed=3)
    train, test = trace.split(test_fraction=0.25)

    report = {
        "benchmark": "training",
        "config": {
            "quick": args.quick,
            "repeats": repeats,
            "context_length": context_length,
            "horizon": horizon,
            "hidden_size": 32,
            "num_layers": 2,
            "batch_size": 64,
            "window_stride": 3,
            "cpu_count": os.cpu_count(),
        },
    }

    print("timing pool reuse...", file=sys.stderr)
    eval_forecaster = DeepARForecaster(
        context_length, horizon, hidden_size=32, num_layers=2, num_samples=100,
        config=TrainingConfig(
            epochs=1, batch_size=64, window_stride=3, seed=0,
            patience=0,  # fixed-length run: set-up must not depend on early stopping
        ),
    ).fit(train.values)
    report["pool_reuse"] = bench_pool_reuse(
        eval_forecaster, test.values, len(train.values), repeats, args.jobs
    )

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    pr = report["pool_reuse"]
    if "skipped" in pr:
        parallel = f"parallel rows skipped: {pr['skipped']}"
    else:
        parallel = (
            f"reused {pr['reused']['best_ms']:.0f}ms  "
            f"startup {pr['pool_startup_ms']:.0f}ms  "
            f"-> {pr['parallel_speedup']:.2f}x vs serial"
        )
    print(
        f"pool_reuse  : serial {pr['serial']['best_ms']:.0f}ms  {parallel}, "
        f"deterministic={pr['deterministic']}"
    )
    print(f"wrote {args.output}")

    failed = False
    if not pr["deterministic"]:
        print("DETERMINISM FAILURE: pooled backtests disagree with serial", file=sys.stderr)
        failed = True
    gate = parallel_gate_failure(pr)
    if gate:
        print(f"PARALLEL GATE FAILURE: {gate}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
