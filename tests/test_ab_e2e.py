"""The verdict rule of ``scripts/ab_e2e.py`` (choosing-metrics, sections 6 and 8)."""

import importlib.util
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
