"""Inference micro-benchmarks -> BENCH_inference.json.

One section, which the end-to-end ledger (``benchmarks/e2e``, which owns
per-layer timings such as ``nn.lstm_step_us``, ``forecast.sample_ms_p50``
and ``forecast.predict_ms_p50``) does not measure:

* **serving_precision** — DeepAR trains and serves one float32 network
  (docs/nn.md, Precision); this times its sampler against the float64
  reference - the same seed fitted *and* served in float64 through
  ``tests/nn/oracles.py::float64_serving``, a test route, not an option -
  and gates the accuracy of the whole precision, training included: wQL
  and coverage deltas on a same-seed backtest must stay within tolerance.

Timings interleave the variants (a, b, a, b, ...) so clock drift and
cache state hit every variant equally — on noisy shared machines the
*ratio* is far more stable than any absolute number.  Raw-kernel vs
autograd-tape parity is not measured here: it is bitwise and a tier-1
test (``tests/nn``, ``tests/property/test_kernel_properties.py``).

Usage::

    PYTHONPATH=src python -m benchmarks.perf.perf_inference --quick \
        --output BENCH_inference.json
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
from repro.traces import STEPS_PER_DAY, alibaba_like_trace
from tests.nn.oracles import float64_serving

LEVELS = (0.1, 0.5, 0.9)

# Precision gate (docs/benchmarks.md), set from measurement: the worst delta
# of training seeds 0-2 at this file's two configs against a float64 fit of
# the same seed, times ten and rounded up (wQL 1.1e-8 .. 3.1e-7 relative;
# coverage 0 in all six - it is a count, and it moves only when a realised
# value falls between the float32 and the float64 quantile).  The tested
# budget this sits inside is 1e-4 / 0.002 (tests/nn/test_float32.py).
WQL_REL_TOLERANCE = 5e-6
COVERAGE_TOLERANCE = 0.0
REFERENCE = "float64 route: the same seed fitted and served in float64 (tests/nn/oracles.py::float64_serving)"


def interleaved_times(variants: dict, repeats: int) -> dict[str, dict[str, float]]:
    """Time each no-arg callable ``repeats`` times, round-robin.

    Returns per-variant best and median wall-clock in milliseconds.
    """
    timings: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(repeats):
        for name, fn in variants.items():
            start = time.perf_counter()
            fn()
            timings[name].append((time.perf_counter() - start) * 1e3)
    return {
        name: {"best_ms": float(np.min(ts)), "median_ms": float(np.median(ts))}
        for name, ts in timings.items()
    }


def bench_serving_precision(
    forecaster: DeepARForecaster,
    reference: DeepARForecaster,
    train_values: np.ndarray,
    sample_context: np.ndarray,
    test_values: np.ndarray,
    start_index: int,
    repeats: int,
    stride: int,
) -> dict:
    """float32 (what every fit and predict does) vs the float64 route.

    ``reference`` is an unfitted twin of ``forecaster``'s configuration;
    it is fitted and served inside ``float64_serving``, so the gate holds
    the whole precision to account, not serving alone.  The gate is
    statistical, not bitwise: two precisions train two trajectories, and
    ``standard_t`` rejection sampling can consume different rng draws once
    an intermediate differs in the last ulp, so the float32 model is held
    to distribution-level tolerances - relative wQL delta and absolute
    coverage delta on a same-seed backtest - rather than sample equality.
    """

    def run_backtest(model):
        return backtest(
            model,
            test_values,
            model.context_length,
            model.horizon,
            LEVELS,
            series_start_index=len(train_values),
            stride=stride,
        )

    with float64_serving(reference):
        reference.fit(train_values)
        forecaster.sample_paths(sample_context, start_index)  # warm both paths
        times = interleaved_times(
            {
                "float64": lambda: reference.sample_paths(sample_context, start_index),
                "float32": lambda: forecaster.sample_paths(sample_context, start_index),
            },
            repeats,
        )
        f64 = run_backtest(reference)
    f32 = run_backtest(forecaster)

    wql_64 = f64.mean_wql()
    wql_32 = f32.mean_wql()
    wql_rel_delta = abs(wql_32 - wql_64) / max(abs(wql_64), 1e-12)
    coverage_delta = max(
        abs(f32.coverage(level) - f64.coverage(level)) for level in LEVELS
    )
    accuracy_ok = bool(
        wql_rel_delta <= WQL_REL_TOLERANCE and coverage_delta <= COVERAGE_TOLERANCE
    )
    return {
        **times,
        "reference": REFERENCE,
        "speedup": times["float64"]["median_ms"] / times["float32"]["median_ms"],
        "wql_float64": wql_64,
        "wql_float32": wql_32,
        "wql_rel_delta": wql_rel_delta,
        "wql_rel_tolerance": WQL_REL_TOLERANCE,
        "coverage_max_delta": coverage_delta,
        "coverage_tolerance": COVERAGE_TOLERANCE,
        "accuracy_ok": accuracy_ok,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perf_inference")
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale run: fewer epochs and repeats")
    parser.add_argument("--output", default="BENCH_inference.json")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per variant (overrides --quick)")
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 7)
    epochs = 2 if args.quick else 6
    days = 8 if args.quick else 12
    context_length, horizon = 72, 72
    stride = 12  # 13 windows in the accuracy backtest; back-to-back 72/72 gives 3

    print(f"training DeepAR ({epochs} epochs, {days}-day trace)...", file=sys.stderr)
    trace = alibaba_like_trace(num_steps=days * STEPS_PER_DAY, seed=3)
    train, test = trace.split(test_fraction=0.25)

    def make() -> DeepARForecaster:
        return DeepARForecaster(
            context_length, horizon, hidden_size=32, num_layers=2, num_samples=100,
            config=TrainingConfig(epochs=epochs, batch_size=64, window_stride=3, seed=0),
        )

    forecaster = make().fit(train.values)
    sample_context = test.values[:context_length]

    print(f"timing ({repeats} repeats/variant, interleaved)...", file=sys.stderr)
    report = {
        "benchmark": "inference",
        "config": {
            "quick": args.quick,
            "repeats": repeats,
            "context_length": context_length,
            "horizon": horizon,
            "hidden_size": 32,
            "num_layers": 2,
            "num_samples": 100,
            "stride": stride,
            "cpu_count": os.cpu_count(),
        },
        "serving_precision": bench_serving_precision(
            forecaster, make(), train.values, sample_context, test.values,
            len(train.values), max(1, repeats // 2), stride,
        ),
    }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    f32 = report["serving_precision"]
    print(
        f"float32     : {f32['speedup']:.2f}x vs the float64 route  "
        f"wQL rel delta {f32['wql_rel_delta']:.2e}  "
        f"coverage delta {f32['coverage_max_delta']:.2e}  "
        f"accuracy_ok={f32['accuracy_ok']}"
    )
    print(f"wrote {args.output}")
    if not f32["accuracy_ok"]:
        print(
            "PRECISION FAILURE: float32 deltas exceed the documented tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
