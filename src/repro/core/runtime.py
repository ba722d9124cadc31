"""Continuous auto-scaling runtime — Figure 2's workflow as a live loop.

:class:`AutoscalingRuntime` ingests workload observations one interval
at a time, re-plans every ``replan_every`` intervals from the trailing
context, and exposes the node target for the *next* interval — the
object one would wire to a real cluster's scaling API.  One interval is
exactly one :meth:`~AutoscalingRuntime.step`, which runs four phases —

1. **maybe-plan** (:meth:`~AutoscalingRuntime.maybe_plan`) — commit a
   new plan when the cadence or :meth:`~AutoscalingRuntime.request_replan`
   demands one;
2. **actuate** (:meth:`~AutoscalingRuntime.actuate`) — read the node
   target off the committed plan (or the reactive fallback during cold
   start);
3. **observe** (:meth:`~AutoscalingRuntime.observe`) — validate and
   ingest the workload that materialised;
4. **monitor** — feed the interval's ``(forecast quantiles, realized
   value)`` pair to the attached health monitor —

and returns a :class:`StepResult` stamped with the interval's **tick**,
the one counter decisions, provenance records and monitor feeds share.
:meth:`~AutoscalingRuntime.run` is a loop over :meth:`step`; the phases
are separately callable for drivers that interleave their own work
(the ``simulate`` command, :class:`repro.service.ServiceRuntime`).

**State.**  Everything the loop reads back on the next tick is one
:class:`RuntimeState` value, ``runtime.state``, mutated in place by the
phases; :meth:`~AutoscalingRuntime.state_dict` serialises exactly its
fields, so a checkpoint is O(1) in uptime.  What the loop *did* is not
state: ``runtime.decisions`` and ``runtime.provenance`` are this
process's audit lists, never serialised — the durable trail is whatever
the emitted records were written to (``--telemetry``, the daemon's
``--decisions-out``), and ``state.decisions_committed`` counts commits
across restarts.

**One commit path, one record.**  Every decision — predictive,
``degraded`` (the planner kept raising; see ``on_planner_error``) or
``reactive-fallback`` (no full context yet) — goes through
:meth:`~AutoscalingRuntime._commit`, which appends the
:class:`Decision`, counts it (``runtime.decisions{source}``) and, only
when a sink or ``record_provenance`` listens, emits
:meth:`Decision.record` as a ``provenance`` event.  A step is one
``runtime.step`` span; a replan adds its ``runtime.step/plan`` child
(the planner call under ``/plan/planner``), so an idle step pays for
one span and times its phases by four reads of the registry's clock
(:attr:`StepResult.phase_seconds`).  Those spans, the
``runtime.nodes_requested`` gauge and the
degradation counters (``runtime.invalid_observations``,
``runtime.planner_errors``, ``runtime.planner_retries``,
``runtime.degraded_intervals``) flow to the ambient
:mod:`repro.obs` registry.  A step opens no trace: the daemon
(:class:`repro.service.ServiceRuntime`) brackets its whole tick in one,
so the step's spans are written inside that tick's ``trace`` record.

**Failure modes** (injectors in :mod:`repro.faults`): an invalid
observation (NaN, inf, negative) never reaches the context —
``invalid_policy`` raises, imputes the last valid value, or rejects the
sample while the clock still advances; a planner that raises on every
retry yields a reactive plan for the next ``replan_every`` intervals
and predictive planning is re-attempted at the next boundary.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from ..obs import get_registry
from .plan import Planner, ScalingPlan, _decode_value, _encode_value, required_nodes
from .reactive import ReactiveMaxScaler, ReactiveScaler

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.monitor import ModelHealthMonitor

__all__ = ["Decision", "RuntimeState", "StepResult", "AutoscalingRuntime"]


@dataclass(frozen=True)
class Decision:
    """One planning event in the runtime's audit log."""

    time_index: int
    plan: ScalingPlan
    source: str  # "predictive", "reactive-fallback", or "degraded"

    @property
    def tick(self) -> int:
        """Alias for :attr:`time_index` in the step API's vocabulary."""
        return self.time_index

    def summary(self) -> dict:
        """The keys every form of the decision leads with: ``time_index``,
        ``source``, ``strategy``, ``horizon``, ``nodes``, ``nodes_first``.

        :meth:`record` starts from it; the daemon's wire form is exactly
        it, so a decision log computes none of the record's reductions.
        """
        plan = self.plan
        return {
            "time_index": int(self.time_index),
            "source": self.source,
            "strategy": plan.strategy,
            "horizon": int(plan.horizon),
            "nodes": plan.nodes.tolist(),
            "nodes_first": int(plan.nodes[0]),
        }

    def record(self, **extra) -> dict:
        """The decision as one flat JSON-safe record — its only emitted form.

        Always present: ``time_index``, ``source``, ``strategy``,
        ``horizon``, ``nodes``, ``nodes_first``, ``ramp_clipped_steps``.
        ``extra`` carries what the plan does not (``window_statistic``
        of a reactive estimate, the ``error`` that degraded a plan);
        ``tau_*`` / ``bound_*`` / ``uncertainty_*`` / ``model`` /
        ``policy`` appear when the planner stamped their inputs.
        """
        plan = self.plan
        meta = plan.metadata
        record: dict = {
            **self.summary(),
            **extra,
            "ramp_clipped_steps": int(meta.get("ramp_clipped_steps", 0)),
        }
        if plan.quantile_levels is not None:
            levels = np.asarray(plan.quantile_levels, dtype=np.float64)
            record["tau_min"] = float(levels.min())
            record["tau_max"] = float(levels.max())
        bound = meta.get("bound_workload")
        if bound is not None:
            bound = np.asarray(bound, dtype=np.float64)
            record["bound_max"] = float(bound.max())
            record["bound_total"] = float(bound.sum())
        uncertainty = meta.get("uncertainty")
        if uncertainty is not None:
            uncertainty = np.asarray(uncertainty, dtype=np.float64)
            record["uncertainty_mean"] = float(uncertainty.mean())
            record["uncertainty_max"] = float(uncertainty.max())
        if "model" in meta:
            record["model"] = meta["model"]
        if "policy" in meta:
            record["policy"] = meta["policy"]
        return record


@dataclass(slots=True)
class RuntimeState:
    """Every mutable field of the loop — what a checkpoint holds, no more.

    ``decisions_committed`` is the lifetime commit count: the offset of
    the next record in whatever log the emitted decisions are kept in.
    """

    tick: int = 0
    plan_position: int = 0
    history: deque = field(default_factory=deque)
    current_plan: ScalingPlan | None = None
    last_target: int | None = None
    replan_requested: bool = False
    planner_errors: int = 0
    degraded_intervals: int = 0
    invalid_observations: int = 0
    decisions_committed: int = 0


@dataclass(frozen=True)
class StepResult:
    """Everything one interval of the closed loop produced.

    Attributes
    ----------
    tick:
        Absolute index of the interval that was just served — the one
        authoritative counter.  The decision audit log, provenance
        records, and monitor feeds for this interval all carry exactly
        this value.
    target_nodes:
        The allocation committed for the interval (decided before the
        workload was observed).
    source:
        Where the allocation came from: ``"predictive"``,
        ``"reactive-fallback"``, or ``"degraded"``.
    planned:
        True when a new plan was committed at this tick (a planning
        boundary); the committed :class:`Decision` is then
        ``decision``.
    decision:
        The :class:`Decision` committed at this tick, or None when the
        interval ran off a previously committed plan.
    observed:
        The workload value actually ingested (after validation /
        imputation), or None when the sample was rejected.
    degraded:
        True when the interval was served by a degraded (planner
        failure) plan.
    phase_seconds:
        Wall-clock seconds spent in each phase of this step, keyed
        ``"plan"`` / ``"actuate"`` / ``"observe"``: the gaps between four
        reads of the registry's span clock inside the ``runtime.step``
        span, so they sum to at most its duration.  ``"plan"`` includes
        the ``runtime.step/plan`` span when the step replanned.
    """

    tick: int
    target_nodes: int
    source: str
    planned: bool = False
    decision: Decision | None = None
    observed: float | None = None
    degraded: bool = False
    phase_seconds: dict[str, float] | None = None


class AutoscalingRuntime:
    """Closed-loop driver around a planning strategy.

    Parameters
    ----------
    planner:
        Any :class:`~repro.core.plan.Planner`
        (e.g. :class:`~repro.core.autoscaler.RobustPredictiveAutoscaler`,
        a :class:`~repro.core.predictive.PointForecastScaler`, or a
        reactive scaler constructed with ``threshold``/``horizon``).
    context_length:
        History needed before predictive planning can start.
    horizon:
        Steps each plan covers.
    replan_every:
        Re-plan cadence in intervals; defaults to ``horizon``
        (back-to-back plans, the paper's evaluation protocol).  Smaller
        values give receding-horizon control.
    fallback:
        Reactive scaler used before enough history exists (default
        Reactive-Max over a 6-interval window) — a real deployment
        cannot refuse to scale during warm-up.
    threshold:
        Per-node workload threshold for the fallback's allocations.
    start_tick:
        Absolute index of the first interval (e.g. ``len(train)`` when
        driving a test split).
    monitor:
        Optional :class:`~repro.obs.monitor.ModelHealthMonitor`; when
        attached, every observed interval covered by a predictive plan
        feeds the monitor its forecast quantiles and realized value
        (degraded intervals feed its degraded-step counter instead).
    record_provenance:
        Keep provenance records on :attr:`provenance` (they are always
        *emitted* when the ambient registry has sinks).
    invalid_policy:
        What :meth:`observe` does with a non-finite or negative
        workload: ``"raise"`` (default) raises :class:`ValueError`,
        ``"impute"`` substitutes the last valid observation (0.0 before
        any exists), ``"reject"`` drops the sample but still advances
        the interval clock.  Invalid values never enter the context.
    on_planner_error:
        ``"degrade"`` (default) turns an exhausted planning failure into
        a reactive-fallback plan recorded with ``source="degraded"``;
        ``"raise"`` re-raises the planner's exception.
    max_plan_retries:
        Immediate re-attempts of ``planner.plan()`` after an exception
        before degrading (or raising).
    """

    def __init__(
        self,
        planner: Planner,
        context_length: int,
        horizon: int,
        threshold: float,
        replan_every: int | None = None,
        fallback: ReactiveScaler | None = None,
        start_tick: int = 0,
        monitor: "ModelHealthMonitor | None" = None,
        record_provenance: bool = False,
        invalid_policy: str = "raise",
        on_planner_error: str = "degrade",
        max_plan_retries: int = 1,
    ) -> None:
        if context_length < 1 or horizon < 1:
            raise ValueError("context_length and horizon must be >= 1")
        if replan_every is None:
            replan_every = horizon
        if not 1 <= replan_every <= horizon:
            raise ValueError("replan_every must be in [1, horizon]")
        if invalid_policy not in ("raise", "impute", "reject"):
            raise ValueError(
                "invalid_policy must be 'raise', 'impute', or 'reject'"
            )
        if on_planner_error not in ("degrade", "raise"):
            raise ValueError("on_planner_error must be 'degrade' or 'raise'")
        if max_plan_retries < 0:
            raise ValueError("max_plan_retries must be >= 0")

        self.planner = planner
        self.context_length = context_length
        self.horizon = horizon
        self.threshold = threshold
        self.replan_every = replan_every
        if fallback is None:
            fallback = ReactiveMaxScaler(window=6)
        self.fallback = fallback
        self.start_tick = start_tick
        self.monitor = monitor
        self.record_provenance = record_provenance
        self.invalid_policy = invalid_policy
        self.on_planner_error = on_planner_error
        self.max_plan_retries = max_plan_retries

        self.state = RuntimeState(
            tick=start_tick, history=deque(maxlen=context_length)
        )
        # This process's audit lists: appended by _commit, never serialised.
        self.decisions: list[Decision] = []
        self.provenance: list[dict] = []
        # (levels array, LevelGrid) of the plan the monitor was last fed.
        self._monitor_grid: tuple | None = None

    @property
    def tick(self) -> int:
        """Absolute index of the next interval to be provisioned."""
        return self.state.tick

    @property
    def planner_errors(self) -> int:
        """``planner.plan()`` calls that raised, retries included."""
        return self.state.planner_errors

    @property
    def degraded_intervals(self) -> int:
        """Intervals served off a degraded (planner-failure) plan."""
        return self.state.degraded_intervals

    @property
    def invalid_observations(self) -> int:
        """Observations that failed validation in :meth:`observe`."""
        return self.state.invalid_observations

    # -- phase 1: maybe-plan -------------------------------------------
    def maybe_plan(self, force: bool = False) -> Decision | None:
        """Commit a new plan if one is due; return the committed decision.

        A plan is *due* when a full context window exists and the
        current plan is exhausted (or the replan cadence has elapsed, or
        a replan was explicitly requested via :meth:`request_replan` /
        ``force=True``).  Planner failures follow the runtime's
        ``on_planner_error`` policy, so the returned decision may carry
        ``source="degraded"``.  Returns None when no planning happened.
        """
        if len(self.state.history) < self.context_length:
            return None
        if not (force or self._needs_replan()):
            return None
        with get_registry().span("plan"):
            decision = self._replan()
        self.state.replan_requested = False
        return decision

    def request_replan(self) -> None:
        """Ask for a fresh plan at the next planning opportunity.

        Used by alert-driven control (the service layer re-plans when
        the health monitor's alert engine fires) and the control plane's
        ``POST /plan``.  No-op effect until a full context exists.
        """
        self.state.replan_requested = True

    def _needs_replan(self) -> bool:
        state = self.state
        if state.replan_requested or state.current_plan is None:
            return True
        return (
            state.plan_position >= self.replan_every
            or state.plan_position >= state.current_plan.horizon
        )

    # -- phase 2: actuate ----------------------------------------------
    def actuate(self) -> int:
        """Node target for the current interval off the committed plan.

        Does *not* plan — callers wanting the classic lazy behaviour use
        :meth:`target_nodes` (= :meth:`maybe_plan` + :meth:`actuate`).
        Falls back to the reactive scaler when no plan exists (cold
        start).
        """
        state = self.state
        plan = state.current_plan
        metrics = get_registry()
        if plan is not None:
            target = int(plan.nodes[min(state.plan_position, plan.horizon - 1)])
            if plan.metadata.get("degraded"):
                state.degraded_intervals += 1
                metrics.counter("runtime.degraded_intervals").inc()
        else:
            metrics.counter("runtime.fallback_activations").inc()
            target = self._fallback_target()
        metrics.gauge("runtime.nodes_requested").set(target)
        state.last_target = target
        return target

    def target_nodes(self) -> int:
        """Node target for the upcoming interval (plans lazily)."""
        self.maybe_plan()
        return self.actuate()

    # -- phase 3 + 4: observe and monitor ------------------------------
    def observe(self, workload: float) -> float | None:
        """Record the workload that materialised in the current interval.

        The value is validated (``NaN < 0`` is False, so a plain sign
        check would let non-finite values silently poison the context);
        what happens to an invalid one is governed by
        :attr:`invalid_policy`.  A rejected sample still advances the
        interval clock — the interval happened, its measurement didn't.

        Returns the value actually ingested (after imputation), or None
        when the sample was rejected.  The attached health monitor is
        fed with the *same tick* the interval was actuated under, so
        monitor windows and provenance records can never skew.
        """
        state = self.state
        value = float(workload)
        if not (math.isfinite(value) and value >= 0):
            value = self._handle_invalid(value)
        if value is not None:
            if self.monitor is not None:
                self._feed_monitor(state.tick, value)
            state.history.append(value)
        state.tick += 1
        state.plan_position += 1
        get_registry().counter("runtime.observations").inc()
        return value

    def _handle_invalid(self, value: float) -> float | None:
        """Apply :attr:`invalid_policy` to one invalid observation."""
        if np.isnan(value):
            reason = "nan"
        elif np.isinf(value):
            reason = "inf"
        else:
            reason = "negative"
        self.state.invalid_observations += 1
        get_registry().counter("runtime.invalid_observations", reason=reason).inc()
        if self.invalid_policy == "raise":
            raise ValueError(
                f"workload must be a finite non-negative number, got {value!r}"
            )
        if self.invalid_policy == "impute":
            history = self.state.history
            return history[-1] if history else 0.0
        return None  # reject: interval elapses, sample is discarded

    def _feed_monitor(self, tick: int, workload: float) -> None:
        """Hand the interval's (forecast quantiles, realized value) pair over.

        ``tick`` is the step's authoritative interval index, captured
        once in :meth:`observe` — the monitor and the decision log can
        therefore never disagree about which interval a residual
        belongs to.
        """
        state = self.state
        plan = state.current_plan
        if plan is None:
            return
        if plan.metadata.get("degraded"):
            self.monitor.observe_degraded(tick)
            return
        levels = plan.metadata.get("forecast_levels")
        values = plan.metadata.get("forecast_values")
        if levels is None or values is None:
            return
        # The grid is resolved once per committed plan, whose arrays are
        # never written after the commit.
        grid = self._monitor_grid
        if grid is None or grid[0] is not levels:
            grid = self._monitor_grid = (levels, self.monitor.level_grid(levels))
        position = min(state.plan_position, plan.horizon - 1)
        self.monitor.observe(
            grid[1],
            values[:, position],
            workload,
            time_index=tick,
            nodes=state.last_target,
            threshold=self.threshold,
        )

    # -- the step API ---------------------------------------------------
    def step(self, workload: float) -> StepResult:
        """One interval of the closed loop: plan if due, actuate, observe.

        Exactly equivalent to the classic ``target_nodes()`` /
        ``observe()`` pair, but returns a :class:`StepResult` stamped
        with the interval's tick.  :meth:`run` is a thin loop over this
        method.
        """
        state = self.state
        tick = state.tick
        metrics = get_registry()
        clock = metrics.clock
        with metrics.span("runtime.step"):
            start = clock()
            decision = self.maybe_plan()
            planned = clock()
            target = self.actuate()
            plan = state.current_plan
            degraded = bool(plan is not None and plan.metadata.get("degraded"))
            if plan is not None:
                source = "degraded" if degraded else "predictive"
            else:
                source = "reactive-fallback"
            actuated = clock()
            observed = self.observe(workload)
            end = clock()
        return StepResult(
            tick=tick,
            target_nodes=target,
            source=source,
            planned=decision is not None,
            decision=decision,
            observed=observed,
            degraded=degraded,
            phase_seconds={
                "plan": (planned - start) / 1e9,
                "actuate": (actuated - planned) / 1e9,
                "observe": (end - actuated) / 1e9,
            },
        )

    def run(self, workload: np.ndarray) -> np.ndarray:
        """Convenience: drive the loop over a whole series.

        For each interval the runtime first commits a node target (using
        only past observations), then observes the interval's actual
        workload.  Returns the allocation series.
        """
        workload = np.asarray(workload, dtype=np.float64)
        allocations = np.empty(len(workload), dtype=np.int64)
        for i, value in enumerate(workload):
            allocations[i] = self.step(value).target_nodes
        return allocations

    # -- planning internals ---------------------------------------------
    def _replan(self) -> Decision:
        state = self.state
        context = np.asarray(state.history, dtype=np.float64)
        metrics = get_registry()
        plan: ScalingPlan | None = None
        error: Exception | None = None
        attempts = 1 + self.max_plan_retries
        for attempt in range(attempts):
            try:
                with metrics.span("planner"):
                    plan = self.planner.plan(
                        context, start_index=state.tick - self.context_length
                    )
                break
            except Exception as exc:
                error = exc
                state.planner_errors += 1
                metrics.counter(
                    "runtime.planner_errors", error=type(exc).__name__
                ).inc()
                if attempt + 1 < attempts:
                    metrics.counter("runtime.planner_retries").inc()
        source, extra = "predictive", {}
        if plan is None:
            if self.on_planner_error == "raise":
                raise error
            # Degrade, never crash: a reactive plan for exactly
            # ``replan_every`` intervals, so predictive planning is
            # re-attempted at the normal cadence; the ``degraded`` flag is
            # what the per-interval counter and the monitor feed key off.
            estimate, target = self._fallback_estimate()
            name = type(error).__name__
            source, extra = "degraded", {"window_statistic": estimate, "error": name}
            plan = ScalingPlan(
                nodes=np.full(self.replan_every, target, dtype=np.int64),
                threshold=self.threshold,
                strategy=self.fallback.name,
                metadata={"degraded": True, "error": name},
            )
        state.current_plan = plan
        state.plan_position = 0
        return self._commit(plan, source, **extra)

    def _fallback_estimate(self) -> tuple[float, int]:
        """Window statistic and node target from the reactive fallback."""
        history = self.state.history
        if not history:
            return 0.0, 1
        recent = np.asarray(history, dtype=np.float64)
        window = recent[-self.fallback.window :]
        estimate = float(max(self.fallback.window_statistic(window), 0.0))
        return estimate, int(required_nodes(np.array([estimate]), self.threshold)[0])

    def _fallback_target(self) -> int:
        estimate, target = self._fallback_estimate()
        plan = ScalingPlan(
            nodes=np.array([target], dtype=np.int64),
            threshold=self.threshold,
            strategy=self.fallback.name,
        )
        self._commit(plan, "reactive-fallback", window_statistic=estimate)
        return target

    def _commit(self, plan: ScalingPlan, source: str, **extra) -> Decision:
        """Commit one decision — the only writer of :attr:`decisions`.

        The record is only built when a sink or ``record_provenance``
        listens — the allocation a detached run avoids.
        """
        state = self.state
        decision = Decision(time_index=state.tick, plan=plan, source=source)
        self.decisions.append(decision)
        state.decisions_committed += 1
        metrics = get_registry()
        metrics.counter("runtime.decisions", source=source).inc()
        if self.record_provenance or metrics.active:
            record = decision.record(**extra)
            metrics.emit_event("provenance", "runtime.decision", **record)
            if self.record_provenance:
                self.provenance.append(record)
        return decision

    # -- checkpoint/restore ---------------------------------------------
    def state_dict(self) -> dict:
        """:attr:`state`, field by field, as JSON-safe plain containers.

        Everything :meth:`load_state_dict` needs to resume the loop
        mid-trace with bit-identical subsequent decisions — the committed
        plan carries its forecast metadata, so monitor feeds continue
        seamlessly — and nothing that grows with uptime.  Model weights
        and the monitor are the service layer's to persist
        (:mod:`repro.service.checkpoint`).
        """
        return {
            f.name: _encode_value(getattr(self.state, f.name))
            for f in fields(RuntimeState)
        }

    def load_state_dict(self, state: dict) -> "AutoscalingRuntime":
        """Replace :attr:`state` with one captured by :meth:`state_dict`.

        The audit lists start empty: they describe what *this* process
        committed, and ``state.decisions_committed`` carries the count.
        """
        loaded = RuntimeState(
            **{f.name: _decode_value(state[f.name]) for f in fields(RuntimeState)}
        )
        loaded.history = deque(loaded.history, maxlen=self.context_length)
        if loaded.current_plan is not None:
            loaded.current_plan = ScalingPlan.from_state(loaded.current_plan)
        self.state = loaded
        self.decisions = []
        self.provenance = []
        return self
