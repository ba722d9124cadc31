"""Closed-loop operation: runtime + forecaster + simulated cluster.

Unlike the offline plan-then-score evaluation, this example operates the
full Figure 2 workflow continuously: the runtime observes each interval's
workload, re-plans every 6 hours from the trailing 12-hour context, and
drives a simulated disaggregated cluster whose nodes attach with real
warm-up delays.  A reactive fallback covers the cold-start phase before
the first context window fills.

Run:  python examples/closed_loop_simulation.py
"""

from repro import (
    AutoscalingRuntime,
    FixedQuantilePolicy,
    RobustPredictiveAutoscaler,
    ScalingPlan,
    TFTForecaster,
    TrainingConfig,
    required_nodes,
)
from repro.simulator import SharedStorage, replay_plan
from repro.traces import alibaba_like_trace

CONTEXT, HORIZON, THETA = 72, 72, 60.0
INTERVAL = 600.0

trace = alibaba_like_trace(num_steps=144 * 12, seed=23)
train, test = trace.split(test_fraction=0.25)

forecaster = TFTForecaster(
    CONTEXT, HORIZON, d_model=32, num_heads=4,
    config=TrainingConfig(epochs=12, window_stride=3, patience=3, seed=0),
)
print("training ...")
forecaster.fit(train.values)

planner = RobustPredictiveAutoscaler(forecaster, THETA, FixedQuantilePolicy(0.9))
runtime = AutoscalingRuntime(
    planner=planner,
    context_length=CONTEXT,
    horizon=HORIZON,
    threshold=THETA,
    replan_every=36,  # receding horizon: re-plan every 6 hours
    start_tick=len(train.values),
)

# The runtime commits each interval's target before seeing its workload;
# the cluster then enacts the targets from a single warm node.
allocations = runtime.run(test.values)
replay = replay_plan(
    ScalingPlan(nodes=allocations, threshold=THETA), test.values, interval_seconds=INTERVAL,
    storage=SharedStorage(checkpoint_gb=4.0, jitter_fraction=0.1, seed=1), initial_nodes=1,
)
violations = sum(o.violated for o in replay.outcomes)

steps = len(test.values)
needed = required_nodes(test.values, THETA)
print(f"\nintervals simulated        : {steps}")
print(f"planning decisions         : {len(runtime.decisions)}")
print(f"threshold violations       : {violations} ({violations / steps:.1%})")
print(f"  of which warm-up induced : {replay.warmup_limited_violations}")
print(f"node-hours consumed        : {replay.total_node_seconds / 3600:.0f}")
print(f"ideal (oracle) node-hours  : {needed.sum() * INTERVAL / 3600:.0f}")
print(f"scale-out events           : {replay.scale_out_events}")
print(f"scale-in events            : {replay.scale_in_events}")
