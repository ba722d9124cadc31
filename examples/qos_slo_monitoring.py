"""QoS view of auto-scaling: from node counts to p99 latency — with
model-health monitoring running alongside.

The paper scores strategies against resource thresholds; this example
uses the M/M/c performance model (the Section V-B future-work direction)
to translate allocations into query latency and score a p99 SLO.  On
top of that, a :class:`repro.obs.ModelHealthMonitor` watches the
forecaster's calibration online and an alert engine flags windows where
coverage sags or residual drift fires — the observability layer a
production deployment would page on.

Run:  python examples/qos_slo_monitoring.py
"""

import numpy as np

from repro import (
    FixedQuantilePolicy,
    RobustPredictiveAutoscaler,
    TFTForecaster,
    TrainingConfig,
    alibaba_like_trace,
    evaluate_strategy,
)
from repro.obs import (
    AlertEngine,
    ModelHealthMonitor,
    default_rules,
    parse_rule,
)
from repro.simulator import MMcQueue, evaluate_qos
from repro.core import ScalingPlan

CONTEXT, HORIZON, THETA = 72, 72, 60.0
SERVICE_RATE = 100.0  # queries/s per node
SLO = 0.025  # 25 ms p99 target

trace = alibaba_like_trace(num_steps=144 * 12, seed=17)
train, test = trace.split(test_fraction=0.25)

forecaster = TFTForecaster(
    CONTEXT, HORIZON, d_model=32, num_heads=4,
    config=TrainingConfig(epochs=12, window_stride=3, patience=3, seed=0),
)
print("training ...")
forecaster.fit(train.values)


print(f"\n{'policy':<12} {'under-prov':>11} {'p99 SLO viol.':>14} "
      f"{'mean p99 (ms)':>14} {'node-steps':>11} {'cal.err':>8} {'drift':>6}")
monitors = {}
for tau in (0.5, 0.8, 0.9, 0.99):
    rules = default_rules(nominal_level=tau)
    rules.append(parse_rule("mape > 0.5 for 2"))
    monitor = ModelHealthMonitor(window=24, alerts=AlertEngine(rules))
    monitors[tau] = monitor
    scaler = RobustPredictiveAutoscaler(forecaster, THETA, FixedQuantilePolicy(tau))
    ev = evaluate_strategy(
        scaler, test.values, CONTEXT, HORIZON, THETA,
        series_start_index=len(train.values), monitor=monitor,
    )
    plan = ScalingPlan(nodes=ev.nodes, threshold=THETA)
    qos = evaluate_qos(plan, ev.actual, service_rate=SERVICE_RATE, slo_seconds=SLO)
    cal_err = (float(np.mean([w.calibration_error for w in monitor.windows]))
               if monitor.windows else float("nan"))
    print(
        f"{'tau=' + str(tau):<12} {ev.report.under_provisioning_rate:>11.3f} "
        f"{qos.slo_violation_rate:>14.3f} {qos.mean_p99 * 1000:>14.2f} "
        f"{int(plan.total_nodes):>11} {cal_err:>8.3f} "
        f"{len(monitor.drift_events):>6}"
    )

# Model health for the paper's running configuration (tau = 0.9).
monitor = monitors[0.9]
print(f"\nmodel health at tau=0.9: {len(monitor.windows)} windows, "
      f"{len(monitor.drift_events)} drift events, "
      f"{len(monitor.alerts.alerts)} alerts")
for window in monitor.windows[-3:]:
    cov = window.coverage.get("0.9", float("nan"))
    print(f"  window {window.window} (t={window.start_index}-{window.end_index}): "
          f"coverage@0.9={cov:.2f}, wQL={window.mean_wql:.4f}, "
          f"MAPE={window.mape:.3f}")
for alert in monitor.alerts.alerts:
    print(f"  ALERT [{alert.rule.severity}] {alert.message}")

# A single interval, inspected closely.
queue = MMcQueue(arrival_rate=2200.0, service_rate=SERVICE_RATE, servers=40)
print(
    f"\nexample interval: 22 Erlangs on 40 nodes -> rho={queue.utilization:.2f}, "
    f"P(wait)={queue.erlang_c():.4f}, p99 response="
    f"{queue.response_quantile(0.99) * 1000:.2f} ms"
)
