"""Fault injection for chaos-testing the closed autoscaling loop.

The paper claims *robust* auto-scaling; this package supplies the
adversary.  A seeded :class:`FaultSchedule` drives three injection
layers — telemetry corruption
(:class:`~repro.faults.telemetry.TelemetryFaultInjector`), planner
crashes and deadline overruns
(:class:`~repro.faults.planner.FlakyPlanner`), and cluster actuation
failures, which :func:`~repro.simulator.replay_plan` reads from
:attr:`FaultSchedule.cluster` by interval index — while the runtime's
graceful-degradation path
(:class:`~repro.core.runtime.AutoscalingRuntime` with
``invalid_policy="impute"`` and ``on_planner_error="degrade"``) keeps
the loop alive.  :func:`repro.evaluation.chaos.chaos_run` ties it all
together and scores the damage.

Quick start::

    from repro.faults import FaultSchedule

    faults = FaultSchedule.parse("nan@12,spike@30:8,planner_error@24")
    # or a seeded random schedule:
    faults = FaultSchedule.random(
        length=288, seed=7,
        rates={"nan": 0.02, "planner_error": 0.05, "node_crash": 0.01},
    )
"""

from .planner import FlakyPlanner
from .schedule import FaultSchedule
from .telemetry import corrupt_series

__all__ = ["FaultSchedule", "corrupt_series", "FlakyPlanner"]
