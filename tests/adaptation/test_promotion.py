"""Tests for the canary promotion policy and its spec grammar."""

from types import SimpleNamespace

import pytest

from repro.adaptation import SHADOWING
from repro.adaptation.promotion import (
    GUARDING,
    IDLE,
    STATES,
    PromotionPolicy,
    parse_promotion_policy,
)


def window(mean_wql, calibration_error=0.05):
    """A minimal WindowStats stand-in: decide() reads only two fields."""
    return SimpleNamespace(mean_wql=mean_wql, calibration_error=calibration_error)


class TestStates:
    def test_vocabulary(self):
        assert STATES == (IDLE, SHADOWING, GUARDING)
        assert len(set(STATES)) == 3


class TestPolicyValidation:
    def test_defaults(self):
        policy = PromotionPolicy()
        assert policy.wql_ratio == 0.95
        assert policy.calibration_slack == 0.1
        assert policy.soak_windows == 2
        assert policy.guard_windows == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wql_ratio": 0.0},
            {"wql_ratio": -1.0},
            {"calibration_slack": -0.01},
            {"soak_windows": 0},
            {"guard_windows": -1},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            PromotionPolicy(**kwargs)


class TestSpecGrammar:
    def test_full_spec(self):
        policy = parse_promotion_policy("wql<=0.9 cal<=0.2 soak=3 guard=5")
        assert policy == PromotionPolicy(0.9, 0.2, 3, 5)

    def test_partial_spec_keeps_defaults(self):
        policy = parse_promotion_policy("soak=1")
        assert policy == PromotionPolicy(soak_windows=1)

    def test_commas_and_equals_accepted(self):
        policy = parse_promotion_policy("wql=0.8,guard=0")
        assert policy.wql_ratio == 0.8
        assert policy.guard_windows == 0

    def test_empty_spec_is_default_policy(self):
        assert parse_promotion_policy("") == PromotionPolicy()
        assert parse_promotion_policy("   ") == PromotionPolicy()

    @pytest.mark.parametrize("spec", ["bogus=1", "wql>0.9", "wql", "soak=two"])
    def test_malformed_tokens_raise(self, spec):
        with pytest.raises(ValueError):
            parse_promotion_policy(spec)

    def test_spec_round_trips(self):
        policy = PromotionPolicy(0.85, 0.25, 4, 6)
        assert parse_promotion_policy(policy.spec) == policy


class TestDecide:
    def test_soaking_until_enough_shadow_windows(self):
        policy = PromotionPolicy(soak_windows=3)
        promote, reason = policy.decide([window(0.1)], [window(1.0)] * 3)
        assert not promote
        assert "soaking" in reason

    def test_requires_incumbent_windows(self):
        policy = PromotionPolicy(soak_windows=1)
        promote, reason = policy.decide([window(0.1)], [])
        assert not promote
        assert "incumbent" in reason

    def test_promotes_on_better_wql(self):
        policy = PromotionPolicy(soak_windows=2)
        promote, reason = policy.decide(
            [window(0.5), window(0.5)], [window(1.0), window(1.0)]
        )
        assert promote
        assert "0.5000" in reason

    def test_blocks_when_wql_not_better_enough(self):
        # 0.94 of incumbent is within the default 0.95 ratio; 0.96 is not.
        policy = PromotionPolicy(soak_windows=1)
        assert policy.decide([window(0.94)], [window(1.0)])[0]
        promote, reason = policy.decide([window(0.96)], [window(1.0)])
        assert not promote
        assert "wQL not better" in reason

    def test_blocks_on_worse_calibration(self):
        policy = PromotionPolicy(soak_windows=1, calibration_slack=0.1)
        promote, reason = policy.decide(
            [window(0.1, calibration_error=0.4)],
            [window(1.0, calibration_error=0.1)],
        )
        assert not promote
        assert "calibration worse" in reason

    def test_compares_only_the_soak_tail(self):
        # Ancient terrible shadow windows must not block promotion.
        policy = PromotionPolicy(soak_windows=2)
        candidate = [window(9.0), window(0.5), window(0.5)]
        incumbent = [window(1.0)] * 3
        assert policy.decide(candidate, incumbent)[0]
