"""Allocation digests of the rolling evaluation, pinned across refactors.

``evaluate_strategy`` is one :class:`~repro.core.runtime.AutoscalingRuntime`
run scored on ``[context, last decision + horizon)``.  These digests were
recorded when it still walked the decision windows itself and replayed
reactive scalers step by step; the runtime reproduces every one of them.

Cases: four forecaster families x fixed-0.9 / adaptive-0.7-0.9 x no ramp /
+-2 ramp limits on seeds 0-2, plus Reactive-Max and Reactive-Avg replanned
every 72 and every 36 steps.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    FixedQuantilePolicy,
    ReactiveAvgScaler,
    ReactiveMaxScaler,
    RobustPredictiveAutoscaler,
    UncertaintyAwarePolicy,
    evaluate_strategy,
)
from repro.forecast import (
    ARIMAForecaster,
    DeepARForecaster,
    MLPForecaster,
    SeasonalNaiveForecaster,
    TrainingConfig,
)
from repro.traces import STEPS_PER_DAY, alibaba_like_trace

CONTEXT = HORIZON = 72
THETA = 60.0
SEEDS = (0, 1, 2)
POLICIES = {
    "fixed-0.9": lambda: FixedQuantilePolicy(0.9),
    "adaptive-0.7-0.9": lambda: UncertaintyAwarePolicy(0.7, 0.9, uncertainty_threshold=3000.0),
}
RAMPS = {"free": None, "ramp2": 2}


def _forecasters(seed: int) -> dict:
    config = TrainingConfig(epochs=1, window_stride=4, seed=seed)
    return {
        "naive": lambda: SeasonalNaiveForecaster(HORIZON, season=HORIZON),
        "mlp": lambda: MLPForecaster(CONTEXT, HORIZON, hidden_size=16, config=config),
        "deepar": lambda: DeepARForecaster(
            CONTEXT, HORIZON, hidden_size=8, num_samples=20, config=config
        ),
        "arima": lambda: ARIMAForecaster(HORIZON),
    }


def _split(seed: int):
    trace = alibaba_like_trace(num_steps=6 * STEPS_PER_DAY, seed=seed)
    train, test = trace.split(test_fraction=0.25)
    return train.values, test.values


def golden_cases():
    """``(name, planner factory, test values, replan_every, train length)``.

    Each forecaster is fitted once per seed; the factory reseeds a
    stochastic sampler, so every case starts from the same draws.
    """
    for seed in SEEDS:
        train, test = _split(seed)
        for model, make in _forecasters(seed).items():
            forecaster = make().fit(train)
            for policy_name, policy in POLICIES.items():
                for ramp_name, ramp in RAMPS.items():

                    def planner(forecaster=forecaster, policy=policy, ramp=ramp):
                        if hasattr(forecaster, "reseed_sampler"):
                            forecaster.reseed_sampler(seed)
                        return RobustPredictiveAutoscaler(
                            forecaster, THETA, policy(), max_scale_out=ramp, max_scale_in=ramp
                        )

                    name = f"{model}/{policy_name}/{ramp_name}/seed{seed}"
                    yield name, planner, test, HORIZON, len(train)
        for scaler in (ReactiveMaxScaler, ReactiveAvgScaler):
            for every in (72, 36):
                name = f"{scaler.__name__}/every{every}/seed{seed}"
                yield name, lambda scaler=scaler: scaler(threshold=THETA), test, every, len(train)


def digest(nodes: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(nodes, dtype="<i8").tobytes()).hexdigest()[:16]


#: Recorded with the window-walking evaluation (reactive scalers replayed).
GOLDEN = {
    'ReactiveAvgScaler/every36/seed0': ('878906e1d204efeb', 144),
    'ReactiveAvgScaler/every36/seed1': ('21e9db9781ae0c8c', 144),
    'ReactiveAvgScaler/every36/seed2': ('c25750df0b979cad', 144),
    'ReactiveAvgScaler/every72/seed0': ('878906e1d204efeb', 144),
    'ReactiveAvgScaler/every72/seed1': ('21e9db9781ae0c8c', 144),
    'ReactiveAvgScaler/every72/seed2': ('c25750df0b979cad', 144),
    'ReactiveMaxScaler/every36/seed0': ('02a07e8020fa91e1', 144),
    'ReactiveMaxScaler/every36/seed1': ('9c6ceec18f3e6b2c', 144),
    'ReactiveMaxScaler/every36/seed2': ('c067ed6518b60068', 144),
    'ReactiveMaxScaler/every72/seed0': ('02a07e8020fa91e1', 144),
    'ReactiveMaxScaler/every72/seed1': ('9c6ceec18f3e6b2c', 144),
    'ReactiveMaxScaler/every72/seed2': ('c067ed6518b60068', 144),
    'arima/adaptive-0.7-0.9/free/seed0': ('9b88baa79a2bfdd0', 144),
    'arima/adaptive-0.7-0.9/free/seed1': ('13dcfe351d865597', 144),
    'arima/adaptive-0.7-0.9/free/seed2': ('d462072bb673b331', 144),
    'arima/adaptive-0.7-0.9/ramp2/seed0': ('bb9d4c9f86cfb43b', 144),
    'arima/adaptive-0.7-0.9/ramp2/seed1': ('13630d32216efb40', 144),
    'arima/adaptive-0.7-0.9/ramp2/seed2': ('896e286509d891e9', 144),
    'arima/fixed-0.9/free/seed0': ('d0a49b4b238fb2b6', 144),
    'arima/fixed-0.9/free/seed1': ('c651e6dd57dc32aa', 144),
    'arima/fixed-0.9/free/seed2': ('181ab5ff96e7c7ce', 144),
    'arima/fixed-0.9/ramp2/seed0': ('d0a49b4b238fb2b6', 144),
    'arima/fixed-0.9/ramp2/seed1': ('c651e6dd57dc32aa', 144),
    'arima/fixed-0.9/ramp2/seed2': ('181ab5ff96e7c7ce', 144),
    'deepar/adaptive-0.7-0.9/free/seed0': ('242db7f1a2e619c9', 144),
    'deepar/adaptive-0.7-0.9/free/seed1': ('34f823be0c792fba', 144),
    'deepar/adaptive-0.7-0.9/free/seed2': ('9a2bbde70ffaa3cb', 144),
    'deepar/adaptive-0.7-0.9/ramp2/seed0': ('a33ef4d7918a3eee', 144),
    'deepar/adaptive-0.7-0.9/ramp2/seed1': ('a568a43d7fde85b3', 144),
    'deepar/adaptive-0.7-0.9/ramp2/seed2': ('e9a963c84c280339', 144),
    'deepar/fixed-0.9/free/seed0': ('bf6f0c7d3e700b04', 144),
    'deepar/fixed-0.9/free/seed1': ('2b85ede734c3de54', 144),
    'deepar/fixed-0.9/free/seed2': ('9355a7193c7d1139', 144),
    'deepar/fixed-0.9/ramp2/seed0': ('c848fc63785acf92', 144),
    'deepar/fixed-0.9/ramp2/seed1': ('2f7b491ffc943b7e', 144),
    'deepar/fixed-0.9/ramp2/seed2': ('ff6f42d0b03e7493', 144),
    'mlp/adaptive-0.7-0.9/free/seed0': ('50fa534509fe4bd7', 144),
    'mlp/adaptive-0.7-0.9/free/seed1': ('0426d38313070c2b', 144),
    'mlp/adaptive-0.7-0.9/free/seed2': ('205f05be2ddb8af0', 144),
    'mlp/adaptive-0.7-0.9/ramp2/seed0': ('bd007c02f909d266', 144),
    'mlp/adaptive-0.7-0.9/ramp2/seed1': ('772bd73322c50ed4', 144),
    'mlp/adaptive-0.7-0.9/ramp2/seed2': ('b00d7019864bb5db', 144),
    'mlp/fixed-0.9/free/seed0': ('85be4bae33cb2dae', 144),
    'mlp/fixed-0.9/free/seed1': ('f3b44f64b9616ff2', 144),
    'mlp/fixed-0.9/free/seed2': ('1752e57afd3f0555', 144),
    'mlp/fixed-0.9/ramp2/seed0': ('0752337be9a4c106', 144),
    'mlp/fixed-0.9/ramp2/seed1': ('0bd52086948dade3', 144),
    'mlp/fixed-0.9/ramp2/seed2': ('3605ca8f3b8d2fb5', 144),
    'naive/adaptive-0.7-0.9/free/seed0': ('43b4ceaafefbe17d', 144),
    'naive/adaptive-0.7-0.9/free/seed1': ('8be7584b06c0a874', 144),
    'naive/adaptive-0.7-0.9/free/seed2': ('4c5f0b318472097b', 144),
    'naive/adaptive-0.7-0.9/ramp2/seed0': ('7e7b2b364f6ddd28', 144),
    'naive/adaptive-0.7-0.9/ramp2/seed1': ('853c324652926711', 144),
    'naive/adaptive-0.7-0.9/ramp2/seed2': ('82318374d7c9602c', 144),
    'naive/fixed-0.9/free/seed0': ('43b4ceaafefbe17d', 144),
    'naive/fixed-0.9/free/seed1': ('8be7584b06c0a874', 144),
    'naive/fixed-0.9/free/seed2': ('4c5f0b318472097b', 144),
    'naive/fixed-0.9/ramp2/seed0': ('7e7b2b364f6ddd28', 144),
    'naive/fixed-0.9/ramp2/seed1': ('853c324652926711', 144),
    'naive/fixed-0.9/ramp2/seed2': ('82318374d7c9602c', 144),
}


@pytest.fixture(scope="module")
def digests() -> dict:
    out = {}
    for name, planner, test, every, start in golden_cases():
        ev = evaluate_strategy(
            planner(), test, CONTEXT, HORIZON, THETA, replan_every=every,
            series_start_index=start,
        )
        out[name] = (digest(ev.nodes), len(ev.nodes))
    return out


def test_sixty_cases_are_pinned():
    assert len(GOLDEN) == 60


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_allocations_match_the_recorded_digest(digests, name):
    assert digests[name] == tuple(GOLDEN[name])
