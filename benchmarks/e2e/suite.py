"""The whole set: every workload in a fresh child process, one at a time.

A fresh process per workload gives each a clean ambient registry and a
meaningful ``ru_maxrss``; one at a time because the box has two cores
and a run already uses up to two threads (tick loop + HTTP client).

``--sets N`` repeats the set and records, per metric, the median and the
spread between the sets.  ``--check BASELINE.json`` compares a fresh run
to such a record row by row, using the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .harness import OUT_DIR, ROOT, declared_metrics

__all__ = ["main", "combine", "compare"]

RUN = Path(__file__).resolve().parent / "run.py"
CHILD_TIMEOUT_S = 900

#: Provisioning quality is a pure function of the seed, so against a
#: baseline of the same seed any change is real, and the bounds can be as
#: tight as one tick: (how the change is measured, how much is allowed).
QUALITY_BOUNDS = {
    "under_prov_rate": ("absolute", 0.002),
    "over_prov_ratio": ("relative", 0.001),
}


def _commit() -> "str | None":
    """The checked-out commit, when this is a git checkout with git installed."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _run_child(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One workload in its own process; returns the detailed report it wrote."""
    command = [
        sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))  # the report; the last line is the JSON result
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) exited with code {done.returncode}")
    return json.loads((OUT_DIR / f"result-{name}-trace{trace}.json").read_text("utf-8"))


def _run_set(names, seed, seconds, trace, quick) -> dict:
    started = time.perf_counter()
    reports = {}
    for name in names:
        reports[name] = {0: _run_child(name, seed, seconds, 0, quick)}
        if trace:
            reports[name][1] = _run_child(name, seed, seconds, 1, quick)
    return {"wall_s": time.perf_counter() - started, "reports": reports}


def _spread(values: list[float]) -> float:
    """Distance between the extremes as a share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    return (max(values) - min(values)) / abs(middle)


def combine(sets: list[dict], seed: int, seconds: float, quick: bool) -> dict:
    """Fold the reports of several sets into one result record."""
    first = sets[0]["reports"]
    workloads = {}
    for name, by_trace in first.items():
        entry = {
            "hyper_parameters": by_trace[0]["hyper_parameters"],
            "digest": by_trace[0]["digest"],
            "quality": by_trace[0]["quality"],
            "attempted": by_trace[0]["attempted"],
            "failed": by_trace[0]["failed"],
            "diagnostics": by_trace[0]["diagnostics"],
        }
        if 1 in by_trace:
            entry["digest_traced"] = by_trace[1]["diagnostics"]["digest_traced"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            if trace not in by_trace:
                continue
            entry[kind] = {}
            for metric, cell in by_trace[trace]["metrics"].items():
                values = [
                    one["reports"][name][trace]["metrics"][metric]["value"] for one in sets
                ]
                entry[kind][metric] = {
                    "unit": cell["unit"],
                    "median": statistics.median(values),
                    "spread": _spread(values),
                    "values": values,
                }
        workloads[name] = entry
    any_report = next(iter(first.values()))[0]
    return {
        "benchmark": "e2e",
        "environment": {**any_report["environment"], "commit": _commit()},
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "sets": len(sets),
        "set_wall_s": [one["wall_s"] for one in sets],
        "workloads": workloads,
    }


def compare(baseline: dict, current: dict, declared: dict) -> list[dict]:
    """One row per workload and metric: baseline, now, ratio, verdict.

    End-to-end metrics are judged by the bounds in ``BENCHMARK.json``;
    when both records used one seed, provisioning quality is judged too.

    ``worse_by`` is the change of the median in the metric's bad
    direction, as a share of the baseline.  A row whose recorded spread
    (the larger of the two records') exceeds the bound cannot be told
    from noise: it is ``unresolved`` unless every new value beats every
    baseline value.
    """
    rows = []
    if baseline.get("seed") == current.get("seed"):
        rows.extend(_compare_quality(baseline, current))
    for metric in declared["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload, entry in current["workloads"].items():
            base = baseline["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            if base is None:
                continue
            now = entry["end_to_end"][name]
            worse_by = sign * (now["median"] - base["median"]) / abs(base["median"])
            spread = max(base["spread"], now["spread"])
            if spread > bound:
                all_better = all(
                    sign * new < sign * old for new in now["values"] for old in base["values"]
                )
                verdict = "ok" if all_better else "unresolved"
            else:
                verdict = "regressed" if worse_by > bound else "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": now["unit"],
                    "baseline": base["median"],
                    "now": now["median"],
                    "ratio": now["median"] / base["median"],
                    "worse_by": worse_by,
                    "spread": spread,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def _compare_quality(baseline: dict, current: dict) -> list[dict]:
    """Provisioning-quality rows; only meaningful between runs of one seed."""
    rows = []
    for name, (how, bound) in QUALITY_BOUNDS.items():
        for workload, entry in current["workloads"].items():
            base = baseline["workloads"].get(workload, {}).get("quality", {}).get(name)
            if base is None:
                continue
            now = entry["quality"][name]
            worse_by = now - base if how == "absolute" else (now - base) / base
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": "fraction" if how == "absolute" else "ratio",
                    "baseline": base,
                    "now": now,
                    "ratio": now / base if base else float("nan"),
                    "worse_by": worse_by,
                    "spread": 0.0,
                    "bound": bound,
                    "verdict": "regressed" if worse_by > bound else "ok",
                }
            )
    return rows


def _print_summary(record: dict) -> None:
    print()
    print(f"end-to-end medians over {record['sets']} set(s), seed {record['seed']}")
    for name, entry in record["workloads"].items():
        print(f"  {name}  digest {entry['digest'][:16]}  "
              f"operations {entry['attempted']} attempted, {entry['failed']} failed")
        for metric, cell in entry["end_to_end"].items():
            print(f"    {metric:<18} {cell['median']:>14.6g} {cell['unit']:<9}"
                  f" spread {cell['spread']:.4f}")
    walls = ", ".join(f"{wall:.1f}" for wall in record["set_wall_s"])
    print(f"wall time per set: {walls} s")


def main(args) -> int:
    declared = declared_metrics()
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    names = [workload["name"] for workload in declared["workloads"]]
    sets = [
        _run_set(names, args.seed, seconds, bool(args.trace), args.quick)
        for _ in range(args.sets)
    ]
    record = combine(sets, args.seed, seconds, args.quick)
    _print_summary(record)
    digests = {
        name: {one["reports"][name][0]["digest"] for one in sets}
        | {one["reports"][name][1]["diagnostics"]["digest_traced"]
           for one in sets if 1 in one["reports"][name]}
        for name in names
    }
    unstable = [name for name, seen in digests.items() if len(seen) != 1]
    if unstable:
        print(f"allocation digests differ between runs of one seed: {unstable}")
        return 1
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    if args.check is None:
        return 0
    baseline = json.loads(args.check.read_text(encoding="utf-8"))
    rows = compare(baseline, record, declared)
    print()
    print(f"{'workload':<13} {'metric':<17} {'baseline':>12} {'now':>12} "
          f"{'now/base':>9} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<13} {row['metric']:<17} {row['baseline']:>12.6g} "
              f"{row['now']:>12.6g} {row['ratio']:>9.4f} {row['spread']:>7.4f} "
              f"{row['bound']:>6.3f}  {row['verdict']}")
    for name, entry in record["workloads"].items():
        old = baseline["workloads"].get(name, {}).get("digest")
        if baseline.get("seed") == record["seed"] and old != entry["digest"]:
            print(f"note: {name} allocates differently from the baseline (digest changed)")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
