"""Chaos engineering the closed autoscaling loop.

Subjects the same planner to escalating fault campaigns — telemetry
corruption only, planner crashes only, actuation failures only, then
everything at once — and shows what graceful degradation costs: the
loop never crashes, every planner failure is served by the reactive
fallback (visible as ``source="degraded"`` decisions), and the damage
shows up as a violation/overhead delta, not an exception.

Each campaign is a seeded :class:`~repro.faults.FaultSchedule`, carried
as the ``faults`` of one :class:`~repro.loop.LoopSpec`, so any row of the
table is exactly reproducible from its seed.

Run:  python examples/chaos_engineering.py
"""

from dataclasses import replace

from repro import alibaba_like_trace
from repro.evaluation import chaos_run, format_chaos_report
from repro.faults import FaultSchedule
from repro.forecast import SeasonalNaiveForecaster
from repro.loop import LoopSpec
from repro.traces import STEPS_PER_DAY

CONTEXT, HORIZON, THETA = 144, 36, 60.0

trace = alibaba_like_trace(num_steps=10 * STEPS_PER_DAY, seed=29)
train, test = trace.split(test_fraction=0.3)

forecaster = SeasonalNaiveForecaster(HORIZON, season=STEPS_PER_DAY)
forecaster.fit(train.values)
# Robust scaling at the fixed 0.9 quantile over the seasonal-naive fan.
spec = LoopSpec("naive", context=CONTEXT, horizon=HORIZON, threshold=THETA, quantile=0.9)

steps = len(test.values)
campaigns = {
    "telemetry only": FaultSchedule.random(
        steps, seed=1,
        rates={"nan": 0.05, "drop": 0.03, "spike": 0.02, "duplicate": 0.02},
    ),
    "planner only": FaultSchedule.random(
        steps, seed=2, rates={"planner_error": 0.01, "planner_timeout": 0.005},
    ),
    "cluster only": FaultSchedule.random(
        steps, seed=3,
        rates={"node_crash": 0.03, "provision_fail": 0.02, "warmup_stall": 0.02},
    ),
    "everything": FaultSchedule.random(
        steps, seed=4,
        rates={
            "nan": 0.03, "drop": 0.02, "spike": 0.01,
            "planner_error": 0.01, "planner_timeout": 0.005,
            "node_crash": 0.02, "provision_fail": 0.01, "warmup_stall": 0.01,
        },
    ),
}

print(f"{'campaign':<16} {'faults':>7} {'viol. clean':>12} {'viol. chaos':>12} "
      f"{'degraded':>9} {'overhead':>9} {'repro':>6}")
reports = {}
for name, faults in campaigns.items():
    report = chaos_run(
        replace(spec, faults=faults.spec), forecaster, test.values,
        start_tick=len(train.values),
    )
    reports[name] = report
    print(
        f"{name:<16} {len(faults):>7} "
        f"{report.baseline_violation_rate:>11.1%} "
        f"{report.faulted_violation_rate:>11.1%} "
        f"{report.degraded_intervals:>9} "
        f"{report.node_step_overhead:>8.1%} "
        f"{'yes' if report.deterministic else 'NO':>6}"
    )

print()
print("full report for the 'everything' campaign:")
print(format_chaos_report(reports["everything"]))

assert all(r.deterministic for r in reports.values()), "chaos must be reproducible"
print("\nall campaigns survived and replayed bit-identically")
