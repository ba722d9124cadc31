"""Training-side micro-benchmarks -> BENCH_training.json.

Two sections, neither of which the end-to-end ledger (``benchmarks/e2e``,
which owns fit wall-clock as ``forecast.fit_s`` /
``adaptation.refit_s_p50``) measures:

* **pool_reuse** — repeated ``backtest(n_jobs=2)`` calls on the shared
  persistent pool, against serial and against a fresh throwaway pool
  per call (the historical regression: per-call pool spawn made small
  parallel backtests ~14x slower than serial); records
  ``parallel_speedup`` (serial over reused-pool median);
* **float32_kernels** — the LSTM scan with cached activations
  (:func:`repro.nn.fastpath.lstm_forward`) plus
  :func:`repro.nn.fastgrad.lstm_backward` run in float32 vs float64 at
  benchmark shapes.  Training itself stays float64; this measures the
  kernel headroom the inference float32 mode taps into.

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
import sys
import time

import numpy as np

from repro.evaluation.backtest import backtest
from repro.forecast import DeepARForecaster, TrainingConfig
from repro.parallel import shutdown_shared_pool
from repro.traces import STEPS_PER_DAY, alibaba_like_trace

from .perf_inference import interleaved_times

LEVELS = (0.1, 0.5, 0.9)


def bench_pool_reuse(
    forecaster, test_values: np.ndarray, train_length: int, repeats: int, jobs: int
) -> dict:
    """Repeated parallel backtests: persistent pool vs spawn-per-call.

    ``reused`` calls hit the shared pool (already warm after the first
    call); ``fresh_pool`` forces a throwaway pool per call, which is the
    pre-fix behaviour.  ``serial`` (n_jobs=1) is the floor a small
    workload should stay near.
    """
    kwargs = dict(
        context_length=forecaster.context_length,
        horizon=forecaster.horizon,
        levels=LEVELS,
        series_start_index=train_length,
    )

    def serial() -> None:
        backtest(forecaster, test_values, n_jobs=1, **kwargs)

    def reused() -> None:
        backtest(forecaster, test_values, n_jobs=jobs, **kwargs)

    # Warm the shared pool so `reused` times steady-state, and measure
    # the one-time startup separately.
    shutdown_shared_pool()
    start = time.perf_counter()
    reused()
    startup_ms = (time.perf_counter() - start) * 1e3

    times = interleaved_times({"serial": serial, "reused": reused}, repeats)

    # Pre-fix behaviour: spawn (and tear down) a pool every call.
    fresh: list[float] = []
    for _ in range(max(2, repeats // 2)):
        shutdown_shared_pool()
        start = time.perf_counter()
        reused()
        fresh.append((time.perf_counter() - start) * 1e3)
    shutdown_shared_pool()

    # Determinism across reuse: pooled calls must equal n_jobs=1.
    base = backtest(forecaster, test_values, n_jobs=1, **kwargs)
    pooled = [backtest(forecaster, test_values, n_jobs=jobs, **kwargs) for _ in range(2)]
    identical = all(
        np.array_equal(a.values, b.values)
        for run in pooled
        for a, b in zip(base.forecasts, run.forecasts)
    )
    shutdown_shared_pool()

    return {
        **times,
        "fresh_pool": {"best_ms": float(np.min(fresh)), "median_ms": float(np.median(fresh))},
        "pool_startup_ms": startup_ms,
        "reuse_speedup_vs_fresh": float(np.min(fresh)) / times["reused"]["best_ms"],
        "parallel_speedup": times["serial"]["median_ms"] / times["reused"]["median_ms"],
        "jobs": jobs,
        "deterministic": bool(identical),
    }


def bench_float32_kernels(
    hidden_size: int, num_layers: int, repeats: int,
    batch: int = 64, steps: int = 72, features: int = 6,
) -> dict:
    """Fused LSTM forward+backward, float32 vs float64, same shapes.

    Gradients are compared against the float64 run (max relative
    difference) as a sanity record — float32 training is not wired up,
    so this is informational, not gated.
    """
    from repro.nn import fastgrad, fastpath

    rng = np.random.default_rng(11)
    x = rng.normal(size=(batch, steps, features))
    layer_params = []
    for layer in range(num_layers):
        in_size = features if layer == 0 else hidden_size
        layer_params.append((
            rng.normal(size=(in_size, 4 * hidden_size), scale=0.1),
            rng.normal(size=(hidden_size, 4 * hidden_size), scale=0.1),
            rng.normal(size=4 * hidden_size, scale=0.1),
        ))

    def forward(dtype):
        caches: list = []
        outputs, _ = fastpath.lstm_forward(
            x, layer_params, hidden_size, dtype=dtype, cache=caches
        )
        return outputs, caches

    def run(dtype):
        def fn() -> None:
            outputs, caches = forward(dtype)
            fastgrad.lstm_backward(np.ones_like(outputs), caches, hidden_size)

        return fn

    times = interleaved_times(
        {"float64": run(np.float64), "float32": run(np.float32)}, repeats
    )

    grads = {}
    for dtype in (np.float64, np.float32):
        outputs, caches = forward(dtype)
        grads[dtype], _, _ = fastgrad.lstm_backward(
            np.ones_like(outputs), caches, hidden_size
        )
    rel_diffs = []
    for g64, g32 in zip(grads[np.float64], grads[np.float32]):
        for a, b in zip(g64, g32):
            denom = np.maximum(np.abs(a), 1e-8)
            rel_diffs.append(float(np.max(np.abs(a - b.astype(np.float64)) / denom)))
    return {
        **times,
        "speedup": times["float64"]["median_ms"] / times["float32"]["median_ms"],
        "max_rel_grad_diff": max(rel_diffs),
        "batch": batch,
        "steps": steps,
        "hidden_size": hidden_size,
        "num_layers": num_layers,
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
        },
    }

    print("timing float32 kernels...", file=sys.stderr)
    report["float32_kernels"] = bench_float32_kernels(32, 2, repeats)

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

    fk = report["float32_kernels"]
    print(
        f"float32_kern: f64 {fk['float64']['best_ms']:.0f}ms  "
        f"f32 {fk['float32']['best_ms']:.0f}ms  -> {fk['speedup']:.2f}x, "
        f"max rel grad diff {fk['max_rel_grad_diff']:.2e}"
    )
    pr = report["pool_reuse"]
    print(
        f"pool_reuse  : serial {pr['serial']['best_ms']:.0f}ms  "
        f"reused {pr['reused']['best_ms']:.0f}ms  "
        f"fresh {pr['fresh_pool']['best_ms']:.0f}ms  "
        f"-> {pr['reuse_speedup_vs_fresh']:.1f}x "
        f"({pr['parallel_speedup']:.2f}x vs serial), "
        f"deterministic={pr['deterministic']}"
    )
    print(f"wrote {args.output}")

    if not pr["deterministic"]:
        print("DETERMINISM FAILURE: pooled backtests disagree with serial", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
