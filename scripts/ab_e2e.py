#!/usr/bin/env python
"""A/B two checkouts on the end-to-end benchmark, by the house rule.

    python scripts/ab_e2e.py --parent /root/scratch/parent --change . \\
        --workload cycle-tft --pairs 10

Runs ``benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0``
in each checkout, ``N`` being ``run_seconds`` of ``BENCHMARK.json``, as
``--pairs`` parent / change pairs: one seed per pair, the side that goes
first alternating, one process at a time.  For every end-to-end metric
it prints every run, each side's median and quartiles, wins / ties and
the verdict of the choosing-metrics rule (:func:`verdict`), and - both
sides of a pair run the same seed - in how many pairs the two allocation
digests ``run.py`` prints are identical (:func:`digest_line`; a differing
digest is reported, not an error).  It reads ``BENCHMARK.json`` and calls
``run.py``; it changes neither.

Stdlib only.  Exits 1 when a run failed its checks or a metric regressed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, the quartiles interpolated between runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins_and_ties(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """Pairs the change wins, and pairs that tie (they count for neither side)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    return sum(sign * c > sign * p for p, c in pairs), sum(c == p for p, c in pairs)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The choosing-metrics rule for one metric on one workload.

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``;
    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the relative
    worsening ``BENCHMARK.json`` allows.  Checked in this order:

    * ``gain`` - the change wins at least nine tenths of all pairs (a tie
      counts for neither side) and its median beats the parent's by more
      than the distance between the parent's quartiles;
    * ``regressed`` - the change's median is worse than the parent's by
      more than ``bound``;
    * ``unresolved`` - either side's inter-quartile spread, relative to
      its median, is wider than ``bound``, so "no worse" cannot be read
      off - unless every run of the change beats every run of the parent;
    * ``unchanged`` - otherwise: no worse than the parent within ``bound``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0  # sign * value: higher is better
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins, _ = wins_and_ties(parent, change, better)
    improvement = sign * (c_med - p_med)
    if 10 * wins >= 9 * len(parent) and improvement > p_q3 - p_q1:
        return "gain"
    if -improvement > bound * abs(p_med):
        return "regressed"
    spread = max(
        (p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def parse_digest(stdout: str) -> "str | None":
    """The allocation digest of ``run.py``'s report header (``... digest <16 hex>``)."""
    found = re.search(r"^workload .*\bdigest ([0-9a-f]{16})\b", stdout, re.MULTILINE)
    return found.group(1) if found else None


def digest_line(parent: "list[str | None]", change: "list[str | None]", seed_base: int) -> str:
    """``allocations identical in N/N pairs``, naming the pairs that differ.

    A pair counts as identical only when both digests were printed and
    are equal.
    """
    differing = [
        f"pair {index + 1} seed {seed_base + index} ({p or 'none'} != {c or 'none'})"
        for index, (p, c) in enumerate(zip(parent, change, strict=True))
        if p is None or p != c
    ]
    line = f"allocations identical in {len(parent) - len(differing)}/{len(parent)} pairs"
    return line + (f"; differing: {', '.join(differing)}" if differing else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in ``checkout``: the JSON object of its last line,
    plus the allocation digest of its report header as ``"digest"``."""
    command = [
        sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return {**json.loads(lines[-1]), "digest": parse_digest(done.stdout)}
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"{' '.join(command)} in {checkout} exited {done.returncode} without a "
            f"result line:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=101,
                        help="pair i runs both sides on seed SEED_BASE + i; use seeds "
                             "not used while writing the change")
    parser.add_argument("--output", type=Path, help="also write every run as JSON here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [entry["name"] for entry in declared["workloads"]]:
        parser.error(f"{args.workload!r} is not a workload of BENCHMARK.json")
    seconds = declared["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, seconds)
            runs[side].append(result)
            shown = "  ".join(
                f"{metric['name']} {result['metrics'][metric['name']]['value']:.6g}"
                for metric in declared["end_to_end"]
            )
            print(f"pair {pair + 1}/{args.pairs} seed {seed} {side:<6} {shown}  "
                  f"digest {result['digest']}  failed {result['failed']}/{result['attempted']}"
                  f"{'' if result['correct'] else '  CHECKS FAILED'}", flush=True)

    print(f"\n{args.workload}: {args.pairs} alternating pairs, seeds {args.seed_base}-"
          f"{args.seed_base + args.pairs - 1}, --seconds {seconds} --trace 0")
    verdicts = {}
    for metric in declared["end_to_end"]:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        verdicts[name] = verdict(values["parent"], values["change"], metric["better"],
                                 metric["bound"])
        wins, ties = wins_and_ties(values["parent"], values["change"], metric["better"])
        print(f"{name} [{metric['unit']}, {metric['better']} is better, bound {metric['bound']}]")
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            print(f"  {side:<6} median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}]  runs "
                  + " ".join(f"{value:.6g}" for value in values[side]))
        print(f"  change wins {wins}/{args.pairs}, ties {ties}  ->  {verdicts[name]}")
    digests = {side: [run["digest"] for run in runs[side]] for side in SIDES}
    allocations = digest_line(digests["parent"], digests["change"], args.seed_base)
    print(allocations)
    failed = {side: sum(run["failed"] for run in runs[side]) for side in SIDES}
    attempted = {side: sum(run["attempted"] for run in runs[side]) for side in SIDES}
    incorrect = {side: sum(not run["correct"] for run in runs[side]) for side in SIDES}
    for side in SIDES:
        print(f"{side:<6} failed operations {failed[side]}/{attempted[side]}, "
              f"runs with failed checks {incorrect[side]}/{args.pairs}")

    if args.output is not None:
        record = {"workload": args.workload, "seconds": seconds, "seed_base": args.seed_base,
                  "pairs": args.pairs, "runs": runs, "verdicts": verdicts,
                  "allocations": allocations}
        args.output.write_text(json.dumps(record, indent=1), encoding="utf-8")
    more_failures = failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]
    bad = incorrect["change"] or more_failures or "regressed" in verdicts.values()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
