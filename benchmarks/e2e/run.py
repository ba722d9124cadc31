"""Entry point of the end-to-end benchmark.

One workload, as the benchmark contract runs it::

    python3 benchmarks/e2e/run.py --workload cycle-tft --seed 3 --seconds 10 --trace 0

prints a report and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs the whole set, each
workload in a fresh child process (see ``suite.py``)::

    python3 -m benchmarks.e2e --seed 3 [--trace] [--sets 2] [--output FILE]
    python3 -m benchmarks.e2e --check benchmarks/e2e/results/latest.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[2]


def _prepare_process() -> None:
    """Pin BLAS to one thread and make ``repro`` and this package importable.

    Must run before numpy is imported.  Unpinned, OpenBLAS spreads the
    small gemms of these models over both cores and throughput wanders
    by several percent between identical runs.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time the laps of one run may take (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics from timing proxies around each layer")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the ticks and one short fit; never for recorded numbers")
    parser.add_argument("--sets", type=int, default=1,
                        help="suite: how many full sets to run (spread is taken between them)")
    parser.add_argument("--output", type=Path, help="suite: write the result file here")
    parser.add_argument("--check", type=Path, metavar="BASELINE.json",
                        help="suite: compare a fresh run to a stored result, row by row")
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    _prepare_process()
    if args.workload is None:
        from benchmarks.e2e import suite

        return suite.main(args)

    try:
        from benchmarks.e2e import harness
    except ModuleNotFoundError as error:
        # e.g. a directory that holds the benchmark but not the program
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2

    if args.workload not in harness.SPECS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(harness.SPECS)}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = harness.declared_metrics()["run_seconds"]
    import_s = time.perf_counter() - _STARTED
    report = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, import_s
    )
    detail = harness.OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    detail.write_text(json.dumps(report, indent=1), encoding="utf-8")
    _print_report(report)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"digest {report['digest'][:16]}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  operations attempted {report['attempted']}, failed {report['failed']}")
    for check in report["failed_checks"]:
        print(f"  CHECK FAILED: {check}")


if __name__ == "__main__":
    sys.exit(main())
