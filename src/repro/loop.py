"""One loop spec: the configuration of a closed loop, and its one builder.

A :class:`LoopSpec` is everything the paper's decision loop is made of,
as one frozen, typed value: the forecaster family and its shape, the
quantile policy (fixed, or the uncertainty-aware adaptive policy of
Section III-C2), the threshold theta and ramp limits, the replan cadence,
an injected fault schedule, health monitoring and model adaptation.  It
is the only place that turns configuration into loop objects:

* :meth:`LoopSpec.forecaster` returns the *unfitted* model.  Fitting is
  the caller's, because ``serve --restore`` loads the fitted state
  instead and must never fit.
* :meth:`LoopSpec.build` returns ``(runtime, monitor, adaptation)``
  around that forecaster (:meth:`~LoopSpec.planner` and
  :meth:`~LoopSpec.monitor` are its parts).
* :meth:`LoopSpec.run` drives a built runtime over a test series under
  the spec's faults and replays its allocations on the simulated
  cluster: the one closed loop ``evaluate``, ``simulate`` and
  :func:`~repro.evaluation.chaos.chaos_run` score.
* :meth:`Record.to_state` / :meth:`Record.from_state` carry the spec
  through a checkpoint's ``config`` as a JSON object, field by field
  through the one codec; a missing, unknown or mistyped field is a
  ``ValueError`` that names it, never an attribute set on the side.

Faults, monitoring and adaptation are imported by :meth:`LoopSpec.build`
and its parts, not here: importing the spec loads nothing the loop does
not use.
"""

from __future__ import annotations

import types
from dataclasses import dataclass, fields, is_dataclass
from typing import Sequence, Union, get_args, get_origin, get_type_hints

from .core import (
    AutoscalingRuntime, FixedQuantilePolicy, RobustPredictiveAutoscaler, UncertaintyAwarePolicy,
)
from .forecast import (
    ARIMAForecaster, DeepARForecaster, MLPForecaster, SeasonalNaiveForecaster, TFTForecaster,
    TrainingConfig,
)
from .nn.serialization import _encode_value
from .traces import STEPS_PER_DAY

__all__ = ["MODELS", "Record", "MonitorSpec", "AdaptationSpec", "LoopSpec"]

#: The forecaster families a loop can run (all of them ``serve``-able).
MODELS = ("tft", "deepar", "mlp", "arima", "naive")
_TFT_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


def _typed(hint, value, name: str):
    """``value`` as a field of type ``hint``, or a ValueError naming ``name``."""
    options = get_args(hint) if get_origin(hint) in (Union, types.UnionType) else (hint,)
    if value is None and type(None) in options:
        return None
    (kind,) = [option for option in options if option is not type(None)]
    if is_dataclass(kind):
        return kind.from_state(value, name)
    if get_origin(kind) is tuple:  # tuple[str, ...]: a JSON list of strings
        if isinstance(value, list) and all(isinstance(item, str) for item in value):
            return tuple(value)
        raise ValueError(f"{name}: expected a list of strings, got {value!r}")
    if isinstance(value, bool) == (kind is bool):  # to isinstance, a bool is an int
        if kind is float and isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, kind):
            return value
    expected = " or ".join("null" if o is type(None) else o.__name__ for o in options)
    raise ValueError(f"{name}: expected {expected}, got {value!r}")


class Record:
    """A frozen dataclass that crosses a checkpoint as a JSON object."""

    def to_state(self) -> dict:
        """Every field through the one codec (a nested record as its own state)."""
        return {f.name: _encode_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_state(cls, state, where: str = ""):
        """The inverse of :meth:`to_state`, checked field by field.

        A missing, unknown or mistyped field — or a value the constructor
        refuses — raises a ``ValueError`` naming it, prefixed by ``where``.
        """
        prefix = f"{where}." if where else ""
        if not isinstance(state, dict):
            raise ValueError(f"{where or cls.__name__}: expected an object, got {state!r}")
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(state) - set(names))
        if unknown:
            listed = ", ".join(map(repr, unknown))
            raise ValueError(f"{where or cls.__name__}: unknown field {listed} "
                             f"(not a field of {cls.__name__})")
        for name in names:
            if name not in state:
                raise ValueError(f"{prefix}{name}: missing")
        hints = get_type_hints(cls)
        values = {name: _typed(hints[name], state[name], prefix + name) for name in names}
        try:
            return cls(**values)
        except ValueError as error:
            raise ValueError(f"{prefix}{error}") from None


@dataclass(frozen=True)
class MonitorSpec(Record):
    """Health monitoring: calibration window, extra alert rules, SLOs."""

    window: int = 24
    alerts: tuple[str, ...] = ()
    slos: tuple[str, ...] = ()


@dataclass(frozen=True)
class AdaptationSpec(Record):
    """Drift -> warm refit -> shadow -> canary promotion
    (:class:`~repro.adaptation.AdaptationManager`'s parameters)."""

    shadow_window: int = 96
    promote_policy: str | None = None
    refit_epochs: int | None = None
    cooldown: int = 48


@dataclass(frozen=True)
class LoopSpec(Record):
    """One closed loop's configuration; see the module docstring."""

    model: str
    context: int = 72
    horizon: int = 72
    epochs: int = 10
    seed: int = 0
    threshold: float = 60.0
    # The policy: fixed at ``quantile``, or, with ``quantile_low`` set,
    # Algorithm 1 between the two levels at uncertainty threshold rho.
    quantile: float = 0.9
    quantile_low: float | None = None
    uncertainty_threshold: float = 100.0
    max_scale_in: int | None = None
    max_scale_out: int | None = None
    replan_every: int | None = None  # None: the horizon
    faults: str | None = None  # a FaultSchedule.parse spec, test-relative
    monitoring: MonitorSpec | None = None
    adaptation: AdaptationSpec | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model: unknown model {self.model!r} (one of {', '.join(MODELS)})")
        if self.adaptation is not None and self.monitoring is None:
            raise ValueError("adaptation: needs monitoring (promotion compares monitor windows)")

    def forecaster(self):
        """The unfitted forecaster."""
        config = TrainingConfig(epochs=self.epochs, window_stride=2, seed=self.seed)
        context, horizon = self.context, self.horizon
        if self.model == "tft":
            return TFTForecaster(context, horizon, quantile_levels=_TFT_LEVELS, config=config)
        if self.model == "deepar":
            return DeepARForecaster(context, horizon, config=config)
        if self.model == "mlp":
            return MLPForecaster(context, horizon, config=config)
        if self.model == "arima":
            return ARIMAForecaster(horizon)
        return SeasonalNaiveForecaster(horizon, season=STEPS_PER_DAY)

    def planner(self, forecaster) -> RobustPredictiveAutoscaler:
        """The robust planner over ``forecaster``, fault-free."""
        if self.quantile_low is None:
            policy = FixedQuantilePolicy(self.quantile)
        else:
            policy = UncertaintyAwarePolicy(
                self.quantile_low, self.quantile,
                uncertainty_threshold=self.uncertainty_threshold,
            )
        return RobustPredictiveAutoscaler(
            forecaster, self.threshold, policy,
            max_scale_out=self.max_scale_out, max_scale_in=self.max_scale_in,
        )

    def fault_schedule(self):
        """The parsed ``faults`` spec, or None."""
        if not self.faults:
            return None
        from .faults import FaultSchedule

        return FaultSchedule.parse(self.faults)

    def monitor(self):
        """A fresh health monitor, or None without ``monitoring``.

        Default rules at the nominal level plus the spec's alert rules; the
        SLO tracker shares the alert engine, so burn-rate alerts fire (and
        trigger the daemon's plan-on-alert) like model-health alerts.
        """
        if self.monitoring is None:
            return None
        from .obs import AlertEngine, ModelHealthMonitor, SLOTracker, default_rules, parse_rule

        spec = self.monitoring
        rules = default_rules(nominal_level=self.quantile)
        rules.extend(parse_rule(rule) for rule in spec.alerts)
        engine = AlertEngine(rules)
        slos = SLOTracker(spec.slos, engine=engine) if spec.slos else None
        return ModelHealthMonitor(window=spec.window, alerts=engine, slos=slos)

    def build(self, forecaster, *, start_tick: int, history: Sequence[float] = ()):
        """``(runtime, monitor, adaptation)`` around ``forecaster``.

        ``start_tick`` is the absolute index of the first tick served
        (``len(train)``); fault times stay relative to it.  ``history``
        seeds the adaptation manager's refit history (its newest values
        are kept), so an early drift alert has material to retrain on.
        A bad fault spec, alert rule, SLO, policy or promotion policy
        raises ``ValueError``.
        """
        planner = self.planner(forecaster)
        faults = self.fault_schedule()
        if faults:
            from .faults import FlakyPlanner

            planner = FlakyPlanner(planner, faults, time_offset=start_tick)
        monitor = self.monitor()
        runtime = AutoscalingRuntime(
            planner, self.context, self.horizon, self.threshold,
            replan_every=self.replan_every, start_tick=start_tick,
            monitor=monitor, record_provenance=monitor is not None,
            invalid_policy="impute" if faults else "raise",
        )
        adaptation = None
        if self.adaptation is not None:
            from .adaptation import AdaptationManager

            spec = self.adaptation
            adaptation = AdaptationManager(
                runtime, policy=spec.promote_policy, shadow_window=spec.shadow_window,
                refit_epochs=spec.refit_epochs, cooldown=spec.cooldown,
            )
            adaptation.history.extend(float(value) for value in history)
        return runtime, monitor, adaptation

    def run(self, runtime, workload, **replay):
        """Drive ``runtime`` (from :meth:`build`) over ``workload``; replay it.

        The loop observes ``workload`` corrupted by the spec's telemetry
        faults; its committed allocations are replayed on the simulated
        cluster under the cluster faults (``replay`` options such as
        ``storage`` or ``initial_nodes`` go to
        :func:`~repro.simulator.replay_plan`), always against the *true*
        workload: corrupted telemetry changes what the loop believed, not
        what it had to serve.  Returns ``(committed plan, telemetry faults
        injected per kind, replay result)``.
        """
        from .core import ScalingPlan
        from .simulator import replay_plan

        faults = self.fault_schedule()
        observed, injected = workload, {}
        if faults:
            from .faults import corrupt_series

            observed, injected = corrupt_series(workload, faults)
        committed = ScalingPlan(
            nodes=runtime.run(observed), threshold=self.threshold, strategy=runtime.planner.name
        )
        return committed, injected, replay_plan(committed, workload, faults=faults, **replay)
