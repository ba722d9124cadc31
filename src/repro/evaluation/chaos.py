"""Chaos harness: score the closed loop under injected faults.

:func:`chaos_run` runs one :class:`~repro.loop.LoopSpec`'s closed loop
twice through :meth:`~repro.loop.LoopSpec.run` — the function the
``evaluate`` CLI command scores — once clean (the spec without faults)
and once with its :class:`~repro.faults.schedule.FaultSchedule` wired
into all three injection layers, and reports the damage as a
:class:`ChaosReport`:

* the **telemetry layer** corrupts the observation feed before the
  runtime sees it (the runtime imputes the bad samples);
* the **planner layer** wraps the planner in a
  :class:`~repro.faults.planner.FlakyPlanner` (the runtime degrades to
  its reactive fallback when planning fails);
* the **cluster layer** fires actuation faults during the replay of the
  committed allocations (failed provisioning, stalled or wedged
  warm-ups, node crashes).

Violations are always measured against the *true* workload — corrupted
telemetry changes what the loop believes, not what it must serve.

With ``check_determinism=True`` (the default) the faulted run is
executed twice and the report's :attr:`~ChaosReport.deterministic` flag
asserts the two runs were bit-identical — the property that makes a
chaos failure reproducible from ``(workload, fault schedule)`` alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..faults import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from ..loop import LoopSpec

__all__ = ["ChaosReport", "chaos_run", "format_chaos_report"]

# Sampler seed for stochastic forecasters (DeepAR): both the baseline
# and every faulted repetition reseed from this constant so a run is a
# pure function of (workload, fault schedule).
_CHAOS_SEED = 0xC7A05


@dataclass(frozen=True)
class ChaosReport:
    """What a fault schedule did to one closed-loop run."""

    intervals: int
    fault_counts: dict = field(default_factory=dict)  # scheduled, per kind
    telemetry_faults: dict = field(default_factory=dict)  # injected, per kind
    planner_faults: int = 0
    # QoS, clean vs faulted (both replayed against the true workload).
    baseline_violation_rate: float = 0.0
    faulted_violation_rate: float = 0.0
    baseline_node_steps: int = 0
    faulted_node_steps: int = 0
    # How the runtime coped.
    invalid_observations: int = 0
    planner_errors: int = 0
    degraded_intervals: int = 0
    decisions_by_source: dict = field(default_factory=dict)
    # Actuation damage during the faulted replay.
    node_failures: int = 0
    provision_failures: int = 0
    warmup_failures: int = 0
    # Same-schedule repeat produced bit-identical results (None if the
    # check was skipped).
    deterministic: "bool | None" = None
    # Model health during the faulted run (zero unless the spec monitors).
    monitored: bool = False
    monitor_windows: int = 0
    drift_events: int = 0
    alerts_fired: int = 0
    # Latest SLO error-budget status from the faulted run (empty unless
    # the monitor carries an SLOTracker).
    slo_status: list = field(default_factory=list)

    @property
    def violation_regression(self) -> float:
        """Extra violation rate attributable to the faults."""
        return self.faulted_violation_rate - self.baseline_violation_rate

    @property
    def node_step_overhead(self) -> float:
        """Relative extra capacity the faulted run provisioned."""
        if self.baseline_node_steps == 0:
            return 0.0
        return (
            self.faulted_node_steps - self.baseline_node_steps
        ) / self.baseline_node_steps


def chaos_run(
    spec: "LoopSpec",
    forecaster,
    workload: np.ndarray,
    *,
    start_tick: int,
    check_determinism: bool = True,
) -> ChaosReport:
    """Run ``spec``'s closed loop clean and faulted; report the difference.

    Parameters
    ----------
    spec:
        The :class:`~repro.loop.LoopSpec` under test; its ``faults`` is
        the schedule, applied at all three layers (fault times index into
        ``workload``).  The clean baseline is the same spec without
        faults.  Every run builds its own runtime and monitor, so each
        starts from identical (empty) loop and health state.
    forecaster:
        The fitted forecaster every run plans with; a stochastic sampler
        is reseeded before each run.
    workload:
        The true workload series.
    start_tick:
        Absolute series index of ``workload[0]`` (e.g. ``len(train)``).
    check_determinism:
        Repeat the faulted run and verify bit-identical allocations and
        outcomes.
    """
    workload = np.asarray(workload, dtype=np.float64)

    def run(loop):
        runtime, _, _ = loop.build(forecaster, start_tick=start_tick)
        reseed = getattr(forecaster, "reseed_sampler", None)
        if reseed is not None:
            reseed(_CHAOS_SEED)
        return (runtime, *loop.run(runtime, workload))

    _, base, _, base_replay = run(replace(spec, faults=None))
    runtime, committed, injected, replay = run(spec)

    deterministic: "bool | None" = None
    if check_determinism:
        _, again, _, replay2 = run(spec)
        deterministic = bool(
            np.array_equal(committed.nodes, again.nodes)
            and [o.violated for o in replay.outcomes]
            == [o.violated for o in replay2.outcomes]
            and replay.failures == replay2.failures
        )

    monitor = runtime.monitor
    return ChaosReport(
        intervals=len(workload),
        fault_counts=(spec.fault_schedule() or FaultSchedule()).counts(),
        telemetry_faults=injected,
        planner_faults=getattr(runtime.planner, "faults_injected", 0),
        baseline_violation_rate=base_replay.violation_rate,
        faulted_violation_rate=replay.violation_rate,
        baseline_node_steps=base.total_nodes,
        faulted_node_steps=committed.total_nodes,
        invalid_observations=runtime.invalid_observations,
        planner_errors=runtime.planner_errors,
        degraded_intervals=runtime.degraded_intervals,
        decisions_by_source=dict(Counter(d.source for d in runtime.decisions)),
        node_failures=replay.node_failures,
        provision_failures=replay.provision_failures,
        warmup_failures=replay.warmup_failures,
        deterministic=deterministic,
        monitored=monitor is not None,
        monitor_windows=len(monitor.windows) if monitor is not None else 0,
        drift_events=len(monitor.drift_events) if monitor is not None else 0,
        alerts_fired=(
            len(monitor.alerts.alerts)
            if monitor is not None and monitor.alerts is not None
            else 0
        ),
        slo_status=(
            monitor.slos.status()
            if monitor is not None and monitor.slos is not None
            else []
        ),
    )


def format_chaos_report(report: ChaosReport) -> str:
    """Render a :class:`ChaosReport` as an aligned plain-text block."""
    lines = [f"chaos report ({report.intervals} intervals)"]

    if report.fault_counts:
        scheduled = ", ".join(
            f"{kind}={count}" for kind, count in sorted(report.fault_counts.items())
        )
        lines.append(f"  faults scheduled    : {scheduled}")
    injected = ", ".join(
        f"{kind}={count}" for kind, count in sorted(report.telemetry_faults.items())
    )
    lines.append(f"  telemetry injected  : {injected or 'none'}")
    lines.append(f"  planner faults hit  : {report.planner_faults}")
    lines.append("")
    lines.append(
        f"  violations          : {report.baseline_violation_rate:.1%} clean"
        f" -> {report.faulted_violation_rate:.1%} faulted"
        f" (+{report.violation_regression:.1%})"
    )
    lines.append(
        f"  node-steps          : {report.baseline_node_steps} clean"
        f" -> {report.faulted_node_steps} faulted"
        f" ({report.node_step_overhead:+.1%})"
    )
    lines.append("")
    lines.append(f"  invalid observations: {report.invalid_observations}")
    lines.append(f"  planner errors      : {report.planner_errors}")
    lines.append(f"  degraded intervals  : {report.degraded_intervals}")
    sources = ", ".join(
        f"{source}={count}"
        for source, count in sorted(report.decisions_by_source.items())
    )
    lines.append(f"  decisions by source : {sources or 'none'}")
    lines.append(
        f"  actuation failures  : {report.node_failures} crashes, "
        f"{report.provision_failures} provision, "
        f"{report.warmup_failures} warm-up"
    )
    if report.monitored:
        lines.append(
            f"  model health        : {report.monitor_windows} windows, "
            f"{report.drift_events} drift events, "
            f"{report.alerts_fired} alerts"
        )
    for entry in report.slo_status:
        state = "ok" if entry.get("healthy", True) else "BURNING"
        if entry.get("slo_kind") == "latency":
            value = entry.get("value_s")
            shown = "n/a" if value is None else f"{value * 1e3:.1f}ms"
            detail = f"p{entry.get('quantile')} {shown}"
        else:
            consumed = float(entry.get("budget_consumed", 0.0) or 0.0)
            detail = f"budget used {consumed:.0%}"
        lines.append(
            f"  slo                 : [{state}] {entry.get('objective')} "
            f"({detail})"
        )
    if report.deterministic is not None:
        verdict = "bit-identical" if report.deterministic else "DIVERGED"
        lines.append(f"  determinism         : repeat run {verdict}")
    return "\n".join(lines)
