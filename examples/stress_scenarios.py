"""Stress-testing a robust autoscaler with injected incidents.

Injects the classic incident shapes (level shift, flash crowd, outage
with retry surge, noise burst) into a clean test trace and measures how
the robust 0.9-quantile strategy and a median (point-like) strategy ride
through each — plus a node failure on the simulated cluster.

Run:  python examples/stress_scenarios.py
"""

import numpy as np

from repro import (
    FaultSchedule,
    FixedQuantilePolicy,
    RobustPredictiveAutoscaler,
    ScalingPlan,
    TFTForecaster,
    TrainingConfig,
    alibaba_like_trace,
    evaluate_strategy,
)
from repro.simulator import SharedStorage, replay_plan
from repro.traces import (
    Trace,
    inject_flash_crowd,
    inject_level_shift,
    inject_noise_burst,
    inject_outage_dip,
)

CONTEXT, HORIZON, THETA = 72, 72, 60.0

trace = alibaba_like_trace(num_steps=144 * 12, seed=29)
train, test = trace.split(test_fraction=0.3)

forecaster = TFTForecaster(
    CONTEXT, HORIZON, d_model=32, num_heads=4,
    config=TrainingConfig(epochs=12, window_stride=3, patience=3, seed=0),
)
print("training on the clean trace ...")
forecaster.fit(train.values)

mid = len(test.values) // 2
scenarios = {
    "clean": test,
    "level shift +30%": inject_level_shift(test, start=mid, magnitude=0.3 * test.values.mean()),
    "flash crowd": inject_flash_crowd(test, start=mid, peak_magnitude=0.8 * test.values.mean()),
    "outage + retries": inject_outage_dip(test, start=mid, duration=12, retry_surge_fraction=0.6),
    "noise burst": inject_noise_burst(test, start=mid, duration=72, extra_std=0.15 * test.values.mean()),
}

print(f"\n{'scenario':<18} {'policy':<10} {'under':>8} {'over':>8}")
for name, scenario in scenarios.items():
    for tau in (0.5, 0.9):
        scaler = RobustPredictiveAutoscaler(forecaster, THETA, FixedQuantilePolicy(tau))
        ev = evaluate_strategy(
            scaler, scenario.values, CONTEXT, HORIZON, THETA,
            series_start_index=len(train.values),
        )
        print(
            f"{name:<18} {'tau=' + str(tau):<10} "
            f"{ev.report.under_provisioning_rate:>8.3f} "
            f"{ev.report.over_provisioning_rate:>8.3f}"
        )

# Node failure on the cluster: capacity gap lasts one warm-up.
print("\nnode-failure drill on the simulated cluster:")
drill = replay_plan(
    ScalingPlan(nodes=np.full(8, 20), threshold=THETA),
    np.full(8, 20 * 0.8 * THETA),
    storage=SharedStorage(checkpoint_gb=4.0, jitter_fraction=0.0),
    faults=FaultSchedule.parse("node_crash@6"),  # control plane auto-replaces
)
crashed, after = drill.outcomes[6], drill.outcomes[7]
print(f"  node crash at interval 6; serving at its start: {crashed.serving_nodes_start}/20")
print(f"  effective nodes over its 600 s:  {crashed.effective_nodes:.3f}/20")
print(f"  serving at the next interval:    {after.serving_nodes_start}/20")
print(f"  failures recorded: {drill.failures}")
