"""The verdict rule of ``scripts/ab_e2e.py`` (choosing-metrics, sections 6 and 8)
and its allocation-identity line."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_e2e", Path(__file__).resolve().parent.parent / "scripts" / "ab_e2e.py"
)
ab_e2e = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_e2e)
verdict = ab_e2e.verdict

# ten parent runs of a lower-is-better timing: median 3.5, quartiles 3.3 / 3.7
PARENT = [3.0, 3.2, 3.3, 3.4, 3.5, 3.5, 3.6, 3.7, 3.8, 4.0]


def test_quartiles_interpolate_between_runs():
    assert ab_e2e.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_e2e.quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, median, q3 = ab_e2e.quartiles(PARENT)
    assert (q1, median, q3) == pytest.approx((3.325, 3.5, 3.675))


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_spread():
    faster = [value - 1.0 for value in PARENT]
    assert verdict(PARENT, faster, "lower", 0.25) == "gain"
    # one lost pair of ten is still nine tenths
    assert verdict(PARENT, [9.9] + faster[1:], "lower", 0.25) == "gain"
    # two lost pairs are not, however large the median gap
    assert verdict(PARENT, [9.9, 9.9] + faster[2:], "lower", 0.25) == "unchanged"
    # every pair won, but by less than the parent's inter-quartile distance (0.35)
    assert verdict(PARENT, [value - 0.1 for value in PARENT], "lower", 0.25) == "unchanged"


def test_ties_count_for_neither_side():
    faster = [value - 1.0 for value in PARENT]
    tied = PARENT[:2] + faster[2:]
    assert verdict(PARENT, tied, "lower", 0.25) == "unchanged"  # 8 wins of 10 pairs
    assert verdict(PARENT, PARENT, "lower", 0.25) == "unchanged"


def test_direction_follows_better():
    rates = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    higher = [value + 30.0 for value in rates]
    assert verdict(rates, higher, "higher", 0.25) == "gain"
    assert verdict(rates, higher, "lower", 0.25) == "regressed"
    assert verdict(higher, rates, "higher", 0.1) == "regressed"


def test_regressed_is_the_median_beyond_the_bound():
    assert verdict(PARENT, [value * 1.3 for value in PARENT], "lower", 0.25) == "regressed"
    assert verdict(PARENT, [value * 1.2 for value in PARENT], "lower", 0.25) == "unchanged"
    assert verdict(PARENT, [value * 1.2 for value in PARENT], "lower", 0.1) == "regressed"


def test_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [24.0, 37.0, 29.0, 36.0, 25.0, 33.0, 28.0, 35.0, 26.0, 31.0]  # IQR / median 0.27
    shuffled = noisy[3:] + noisy[:3]
    assert verdict(noisy, shuffled, "higher", 0.25) == "unresolved"
    assert verdict(noisy, shuffled, "higher", 0.5) == "unchanged"
    # ... unless every run of the change beats every run of the parent: here the
    # median gap (5.2) is inside the parent's bimodal spread (9), so it is no gain
    bimodal = [1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0, 10.5]
    assert verdict(bimodal, [10.7] * 10, "higher", 0.25) == "unchanged"
    assert verdict(bimodal, [10.7] * 9 + [10.2], "higher", 0.25) == "unresolved"
    # a noisy change against a quiet parent is unresolved too
    quiet = [30.0 + 0.1 * index for index in range(10)]
    assert verdict(quiet, shuffled, "higher", 0.25) == "unresolved"


def test_rejects_unpaired_or_unknown_input():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([], [], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "smaller", 0.25)


# ---------------------------------------------------------------------------
# Allocation identity: the digest of run.py's report header, pair by pair
# ---------------------------------------------------------------------------
def _fake_run_py_stdout(workload: str, seed: int, digest: str) -> str:
    """What ``benchmarks/e2e/run.py --workload W --seed S --trace 0`` prints."""
    metrics = {
        name: {"value": value, "unit": unit}
        for name, value, unit in (
            ("setup_s", 2.5, "s"), ("ticks_per_s", 45.0, "1/s"),
            ("decision_ms_p50", 22.0, "ms"), ("peak_rss_mb", 94.0, "MB"),
        )
    }
    report = [f"workload {workload}  seed {seed}  trace 0  digest {digest}"]
    report += [f"  {name:<42} {m['value']:>16.6g} {m['unit']}" for name, m in metrics.items()]
    report += ["  operations attempted 48, failed 0"]
    last = json.dumps({"correct": True, "attempted": 48, "failed": 0, "metrics": metrics})
    return "\n".join(report + [last]) + "\n"


def test_parse_digest_reads_the_report_header():
    stdout = _fake_run_py_stdout("cycle-deepar", 3, "0123456789abcdef")
    assert ab_e2e.parse_digest(stdout) == "0123456789abcdef"
    assert ab_e2e.parse_digest("no report\n{}\n") is None
    # only the header line counts, and only 16 hex digits
    assert ab_e2e.parse_digest("  digest 0123456789abcdef\n") is None
    assert ab_e2e.parse_digest("workload w  seed 0  trace 0  digest xyz\n") is None


def test_digest_line_counts_identical_pairs_and_names_the_others():
    same = ["aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb", "cccccccccccccccc"]
    assert ab_e2e.digest_line(same, list(same), 101) == "allocations identical in 3/3 pairs"
    moved = [same[0], "dddddddddddddddd", None]
    assert ab_e2e.digest_line(same, moved, 101) == (
        "allocations identical in 1/3 pairs; differing: "
        "pair 2 seed 102 (bbbbbbbbbbbbbbbb != dddddddddddddddd), "
        "pair 3 seed 103 (cccccccccccccccc != none)"
    )
    # a digest neither side printed proves nothing
    assert ab_e2e.digest_line([None], [None], 0).startswith("allocations identical in 0/1 pairs")
    with pytest.raises(ValueError):
        ab_e2e.digest_line(same, same[:2], 101)


@pytest.mark.parametrize("change_moves", [False, True], ids=["identical", "differing"])
def test_main_reports_allocation_identity_and_never_fails_on_it(
    change_moves, monkeypatch, capsys, tmp_path
):
    parent, change = tmp_path / "parent", tmp_path / "change"

    def fake_run(command, cwd, **_):
        seed = int(command[command.index("--seed") + 1])
        moved = change_moves and Path(cwd) == change and seed == 8
        digest = f"{seed:016x}" if not moved else "f" * 16
        return subprocess.CompletedProcess(
            command, 0, stdout=_fake_run_py_stdout("cycle-deepar", seed, digest), stderr=""
        )

    monkeypatch.setattr(ab_e2e.subprocess, "run", fake_run)
    output = tmp_path / "ab.json"
    code = ab_e2e.main([
        "--parent", str(parent), "--change", str(change), "--workload", "cycle-deepar",
        "--pairs", "2", "--seed-base", "7", "--output", str(output),
    ])
    assert code == 0  # reported, not an error
    want = (
        "allocations identical in 1/2 pairs; differing: "
        "pair 2 seed 8 (0000000000000008 != ffffffffffffffff)"
        if change_moves else "allocations identical in 2/2 pairs"
    )
    assert want in capsys.readouterr().out.splitlines()
    record = json.loads(output.read_text(encoding="utf-8"))
    assert record["allocations"] == want
    assert [run["digest"] for run in record["runs"]["parent"]] == [f"{7:016x}", f"{8:016x}"]
