"""Continuous auto-scaling runtime — Figure 2's workflow as a live loop.

The evaluation harness in :mod:`repro.core.evaluation` scores committed
plans offline.  :class:`AutoscalingRuntime` is the production-shaped
counterpart: it ingests workload observations one interval at a time,
re-plans every ``replan_every`` intervals from the trailing context, and
exposes the node target for the *next* interval — the object one would
wire to a real cluster's scaling API.

The loop is decomposed into an event-driven **step API**: one interval
is exactly one :meth:`~AutoscalingRuntime.step` call, which runs the
four phases in order —

1. **maybe-plan** (:meth:`~AutoscalingRuntime.maybe_plan`) — commit a
   new plan when the cadence or an explicit
   :meth:`~AutoscalingRuntime.request_replan` demands one;
2. **actuate** (:meth:`~AutoscalingRuntime.actuate`) — read the node
   target for the current interval off the committed plan (or the
   reactive fallback during cold start);
3. **observe** (:meth:`~AutoscalingRuntime.observe`) — validate and
   ingest the workload that materialised;
4. **monitor** — feed the interval's ``(forecast quantiles, realized
   value)`` pair to the attached health monitor.

and returns a :class:`StepResult` carrying the interval's **tick** (the
single authoritative interval counter — provenance records, monitor
feeds, and decisions all stamp this same value, so they can never skew
by one step).  :meth:`~AutoscalingRuntime.run` is a thin loop over
:meth:`step`, so batch callers are unchanged; the phases are also
separately callable for drivers that interleave their own work (the
``simulate`` CLI command, :class:`repro.service.ServiceRuntime`).

The full loop state — clock, context window, committed plan, audit log,
degradation counters — round-trips through
:meth:`~AutoscalingRuntime.state_dict` /
:meth:`~AutoscalingRuntime.load_state_dict`, the foundation of the
service layer's lossless checkpoint/restore.

It also supports an optional reactive fallback for the cold-start phase
(before enough history exists to form a context window) and records
every decision for audit.  The loop is instrumented through
:mod:`repro.obs`: per-phase latency (spans ``runtime.step/plan``,
``runtime.step/actuate``, ``runtime.step/observe``, with the planner
call itself under ``runtime.step/plan/planner``), decision and fallback
counters, and a ``runtime.nodes_requested`` gauge all flow to the
ambient metrics registry.  Attach a
:class:`~repro.obs.trace.TraceCollector` to the registry and every step
becomes one ``trace`` record (trace_id = tick) that carries the span
tree; the step's spans are then written there and nowhere else.
Counter and gauge updates reach a sink when whoever drives the loop
calls ``registry.flush()`` (the daemon does, once per tick).

Two opt-in observability extensions ride on the loop:

* **decision provenance** — every planning step (predictive plan or
  fallback activation) emits one structured ``provenance`` record
  capturing the quantile bound used, the uncertainty estimate, ramp
  clipping, and the final allocation.  Records flow through the ambient
  registry to any attached sink; set :attr:`record_provenance` to also
  keep them on the runtime (:attr:`provenance`).
* **model health** — attach a
  :class:`~repro.obs.monitor.ModelHealthMonitor` and every observed
  interval feeds the monitor its ``(forecast quantiles, realized
  value)`` pair, driving windowed calibration tracking and drift
  detection online.

Both are cheap when unused, not free: with no monitor attached and no
sinks on the ambient registry the hot path builds no records and no
event payloads, but it still times its four spans and updates its
counters.  The e2e benchmark's ``serve-bare`` workload puts that
detached floor at 23 us per idle daemon tick (``idle_tick_us_p50``;
38 us before ``span()`` and the histogram reservoir were slimmed — see
``docs/benchmarks.md``).

The loop also survives the failure modes a production control loop
must (see :mod:`repro.faults` for the matching injectors):

* **bad telemetry** — :meth:`~AutoscalingRuntime.observe` validates
  every observation with ``np.isfinite``; the ``invalid_policy``
  setting decides whether a NaN/inf/negative value raises (``"raise"``,
  the default), is imputed from the last valid observation
  (``"impute"``), or is rejected while the clock still advances
  (``"reject"``).  Invalid values never reach the context deque or the
  planner.
* **crashing planners** — ``planner.plan()`` runs inside a bounded
  retry loop; when every attempt raises, the runtime *degrades* instead
  of crashing: it commits a reactive-fallback plan for the next
  ``replan_every`` intervals, records a :class:`Decision` with
  ``source="degraded"`` (plus a provenance record naming the error),
  and re-attempts predictive planning at the next boundary.  Set
  ``on_planner_error="raise"`` to restore fail-fast behaviour.

Degradation is visible in telemetry: ``runtime.invalid_observations``,
``runtime.planner_errors``, ``runtime.planner_retries``, and
``runtime.degraded_intervals`` counters all flow to the ambient
registry (and therefore to the ``report`` subcommand).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs import get_registry
from .plan import Planner, ScalingPlan, required_nodes
from .reactive import ReactiveScaler

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.monitor import ModelHealthMonitor

__all__ = ["Decision", "StepResult", "AutoscalingRuntime"]


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

    def to_state(self) -> dict:
        return {
            "time_index": int(self.time_index),
            "source": self.source,
            "plan": self.plan.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Decision":
        return cls(
            time_index=int(state["time_index"]),
            plan=ScalingPlan.from_state(state["plan"]),
            source=state["source"],
        )


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
        ``"plan"`` / ``"actuate"`` / ``"observe"``.  The same durations
        feed the ``runtime.step/<phase>`` span histograms.
    """

    tick: int
    target_nodes: int
    source: str
    planned: bool = False
    decision: Decision | None = None
    observed: float | None = None
    degraded: bool = False
    phase_seconds: dict[str, float] | None = None


def _decision_record(
    tick: int, plan: ScalingPlan, source: str
) -> dict:
    """Build the provenance record for one predictive planning step.

    Only called when someone is listening (a sink or
    ``record_provenance``) — this is the allocation a detached run
    avoids.
    """
    meta = plan.metadata
    record: dict = {
        "time_index": int(tick),
        "source": source,
        "strategy": plan.strategy,
        "horizon": int(plan.horizon),
        "nodes": plan.nodes.tolist(),
        "nodes_first": int(plan.nodes[0]),
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


def _fallback_record(
    tick: int, target: int, window_statistic: float, fallback_name: str
) -> dict:
    """Provenance record for one reactive-fallback activation."""
    return {
        "time_index": int(tick),
        "source": "reactive-fallback",
        "strategy": fallback_name,
        "horizon": 1,
        "nodes": [int(target)],
        "nodes_first": int(target),
        "window_statistic": float(window_statistic),
        "ramp_clipped_steps": 0,
    }


def _degraded_record(
    tick: int, plan: ScalingPlan, window_statistic: float, error: BaseException
) -> dict:
    """Provenance record for one degraded (planner-failure) decision."""
    return {
        "time_index": int(tick),
        "source": "degraded",
        "strategy": plan.strategy,
        "horizon": int(plan.horizon),
        "nodes": plan.nodes.tolist(),
        "nodes_first": int(plan.nodes[0]),
        "window_statistic": float(window_statistic),
        "error": type(error).__name__,
        "ramp_clipped_steps": 0,
    }


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
        self.fallback = fallback if fallback is not None else _default_fallback()
        self.start_tick = start_tick
        self.monitor = monitor
        self.record_provenance = record_provenance
        self.invalid_policy = invalid_policy
        self.on_planner_error = on_planner_error
        self.max_plan_retries = max_plan_retries

        self.planner_errors = 0
        self.degraded_intervals = 0
        self.invalid_observations = 0
        self.decisions: list[Decision] = []
        self.provenance: list[dict] = []
        self._history: deque = deque(maxlen=context_length)
        self._current_plan: ScalingPlan | None = None
        self._plan_position = 0
        self._tick = start_tick
        self._last_target: int | None = None
        self._replan_requested = False

    def __repr__(self) -> str:  # keep the old dataclass-style repr surface
        return (
            f"AutoscalingRuntime(planner={self.planner!r}, "
            f"context_length={self.context_length!r}, "
            f"horizon={self.horizon!r}, threshold={self.threshold!r}, "
            f"replan_every={self.replan_every!r}, "
            f"fallback={self.fallback!r}, start_tick={self.start_tick!r}, "
            f"monitor={self.monitor!r}, "
            f"record_provenance={self.record_provenance!r}, "
            f"invalid_policy={self.invalid_policy!r}, "
            f"on_planner_error={self.on_planner_error!r}, "
            f"max_plan_retries={self.max_plan_retries!r})"
        )

    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """Absolute index of the next interval to be provisioned."""
        return self._tick

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
        if len(self._history) < self.context_length:
            return None
        if not (force or self._needs_replan()):
            return None
        before = len(self.decisions)
        self._replan()
        self._replan_requested = False
        return self.decisions[-1] if len(self.decisions) > before else None

    def request_replan(self) -> None:
        """Ask for a fresh plan at the next planning opportunity.

        Used by alert-driven control (the service layer re-plans when
        the health monitor's alert engine fires) and the control plane's
        ``POST /plan``.  No-op effect until a full context exists.
        """
        self._replan_requested = True

    def _needs_replan(self) -> bool:
        if self._replan_requested:
            return True
        if self._current_plan is None:
            return True
        return (
            self._plan_position >= self.replan_every
            or self._plan_position >= self._current_plan.horizon
        )

    # -- phase 2: actuate ----------------------------------------------
    def actuate(self) -> int:
        """Node target for the current interval off the committed plan.

        Does *not* plan — callers wanting the classic lazy behaviour use
        :meth:`target_nodes` (= :meth:`maybe_plan` + :meth:`actuate`).
        Falls back to the reactive scaler when no plan exists (cold
        start).
        """
        if self._current_plan is not None:
            position = min(self._plan_position, self._current_plan.horizon - 1)
            target = int(self._current_plan.nodes[position])
            if self._current_plan.metadata.get("degraded"):
                self.degraded_intervals += 1
                get_registry().counter("runtime.degraded_intervals").inc()
        else:
            metrics = get_registry()
            metrics.counter("runtime.fallback_activations").inc()
            target = self._fallback_target()
        get_registry().gauge("runtime.nodes_requested").set(target)
        self._last_target = target
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
        tick = self._tick
        value = float(workload)
        if not (np.isfinite(value) and value >= 0):
            value = self._handle_invalid(value)
        if value is not None:
            if self.monitor is not None:
                self._feed_monitor(tick, value)
            self._history.append(value)
        self._tick += 1
        self._plan_position += 1
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
        self.invalid_observations += 1
        get_registry().counter("runtime.invalid_observations", reason=reason).inc()
        if self.invalid_policy == "raise":
            raise ValueError(
                f"workload must be a finite non-negative number, got {value!r}"
            )
        if self.invalid_policy == "impute":
            return self._history[-1] if self._history else 0.0
        return None  # reject: interval elapses, sample is discarded

    def _feed_monitor(self, tick: int, workload: float) -> None:
        """Hand the interval's (forecast quantiles, realized value) pair over.

        ``tick`` is the step's authoritative interval index, captured
        once in :meth:`observe` — the monitor and the decision log can
        therefore never disagree about which interval a residual
        belongs to.
        """
        plan = self._current_plan
        if plan is None:
            return
        if plan.metadata.get("degraded"):
            self.monitor.observe_degraded(tick)
            return
        levels = plan.metadata.get("forecast_levels")
        values = plan.metadata.get("forecast_values")
        if levels is None or values is None:
            return
        position = min(self._plan_position, plan.horizon - 1)
        self.monitor.observe(
            levels,
            values[:, position],
            workload,
            time_index=tick,
            nodes=self._last_target,
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
        tick = self._tick
        metrics = get_registry()
        tracer = metrics.tracer
        if tracer is not None:
            tracer.begin(tick)
        status = "ok"
        try:
            with metrics.span("runtime.step"):
                t0 = time.perf_counter()
                with metrics.span("plan"):
                    decision = self.maybe_plan()
                t1 = time.perf_counter()
                with metrics.span("actuate"):
                    target = self.actuate()
                degraded = bool(
                    self._current_plan is not None
                    and self._current_plan.metadata.get("degraded")
                )
                if self._current_plan is not None:
                    source = "degraded" if degraded else "predictive"
                else:
                    source = "reactive-fallback"
                t2 = time.perf_counter()
                with metrics.span("observe"):
                    observed = self.observe(workload)
                t3 = time.perf_counter()
        except BaseException:
            status = "error"
            raise
        finally:
            if tracer is not None:
                trace = tracer.end(status)
                if trace is not None and metrics.active:
                    metrics.emit_event("trace", f"tick:{tick}", **trace)
        return StepResult(
            tick=tick,
            target_nodes=target,
            source=source,
            planned=decision is not None,
            decision=decision,
            observed=observed,
            degraded=degraded,
            phase_seconds={
                "plan": t1 - t0,
                "actuate": t2 - t1,
                "observe": t3 - t2,
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
    def _replan(self) -> None:
        context = np.asarray(self._history, dtype=np.float64)
        metrics = get_registry()
        plan: ScalingPlan | None = None
        error: Exception | None = None
        attempts = 1 + self.max_plan_retries
        for attempt in range(attempts):
            try:
                with metrics.span("planner"):
                    plan = self.planner.plan(
                        context, start_index=self._tick - self.context_length
                    )
                break
            except Exception as exc:
                error = exc
                self.planner_errors += 1
                metrics.counter(
                    "runtime.planner_errors", error=type(exc).__name__
                ).inc()
                if attempt + 1 < attempts:
                    metrics.counter("runtime.planner_retries").inc()
        if plan is None:
            if self.on_planner_error == "raise":
                raise error
            self._degrade(error)
            return
        self._current_plan = plan
        self._plan_position = 0
        self.decisions.append(
            Decision(time_index=self._tick, plan=plan, source="predictive")
        )
        metrics.counter("runtime.decisions", source="predictive").inc()
        if self.record_provenance or metrics.active:
            record = _decision_record(self._tick, plan, "predictive")
            metrics.emit_event("provenance", "runtime.decision", **record)
            if self.record_provenance:
                self.provenance.append(record)

    def _degrade(self, error: Exception) -> None:
        """Commit a reactive plan after planning failed — never crash.

        The degraded plan covers exactly ``replan_every`` intervals, so
        predictive planning is re-attempted at the normal cadence; its
        metadata carries a ``degraded`` flag that the per-interval
        counter and the monitor feed key off.
        """
        estimate, target = self._fallback_estimate()
        plan = ScalingPlan(
            nodes=np.full(self.replan_every, target, dtype=np.int64),
            threshold=self.threshold,
            strategy=self.fallback.name,
            metadata={"degraded": True, "error": type(error).__name__},
        )
        self._current_plan = plan
        self._plan_position = 0
        self.decisions.append(
            Decision(time_index=self._tick, plan=plan, source="degraded")
        )
        metrics = get_registry()
        metrics.counter("runtime.decisions", source="degraded").inc()
        if self.record_provenance or metrics.active:
            record = _degraded_record(self._tick, plan, estimate, error)
            metrics.emit_event("provenance", "runtime.decision", **record)
            if self.record_provenance:
                self.provenance.append(record)

    def _fallback_estimate(self) -> tuple[float, int]:
        """Window statistic and node target from the reactive fallback."""
        if not self._history:
            return 0.0, 1
        recent = np.asarray(self._history, dtype=np.float64)
        window = recent[-self.fallback.window :]
        estimate = max(self.fallback.window_statistic(window), 0.0)
        return estimate, int(required_nodes(np.array([estimate]), self.threshold)[0])

    def _fallback_target(self) -> int:
        estimate, target = self._fallback_estimate()
        metrics = get_registry()
        self.decisions.append(
            Decision(
                time_index=self._tick,
                plan=ScalingPlan(
                    nodes=np.array([target], dtype=np.int64),
                    threshold=self.threshold,
                    strategy=self.fallback.name,
                ),
                source="reactive-fallback",
            )
        )
        metrics.counter("runtime.decisions", source="reactive-fallback").inc()
        if self.record_provenance or metrics.active:
            record = _fallback_record(
                self._tick, target, estimate, self.fallback.name
            )
            metrics.emit_event("provenance", "runtime.decision", **record)
            if self.record_provenance:
                self.provenance.append(record)
        return target

    # -- checkpoint/restore ---------------------------------------------
    def state_dict(self) -> dict:
        """The complete loop state as JSON-safe plain containers.

        Captures everything :meth:`load_state_dict` needs to resume the
        loop mid-trace with bit-identical subsequent decisions: the
        tick clock, the context window, the committed plan (including
        its forecast metadata, so monitor feeds continue seamlessly),
        the audit log, and every degradation counter.  Planner/model
        weights are *not* included — the service layer persists those
        through :mod:`repro.nn.serialization`.
        """
        return {
            "tick": int(self._tick),
            "start_tick": int(self.start_tick),
            "plan_position": int(self._plan_position),
            "history": [float(v) for v in self._history],
            "last_target": (
                int(self._last_target) if self._last_target is not None else None
            ),
            "replan_requested": bool(self._replan_requested),
            "planner_errors": int(self.planner_errors),
            "degraded_intervals": int(self.degraded_intervals),
            "invalid_observations": int(self.invalid_observations),
            "current_plan": (
                self._current_plan.to_state()
                if self._current_plan is not None
                else None
            ),
            "decisions": [d.to_state() for d in self.decisions],
            "provenance": list(self.provenance),
        }

    def load_state_dict(self, state: dict) -> "AutoscalingRuntime":
        """Restore loop state captured by :meth:`state_dict` in place."""
        self._tick = int(state["tick"])
        self.start_tick = int(state["start_tick"])
        self._plan_position = int(state["plan_position"])
        self._history = deque(
            (float(v) for v in state["history"]), maxlen=self.context_length
        )
        last_target = state["last_target"]
        self._last_target = int(last_target) if last_target is not None else None
        self._replan_requested = bool(state["replan_requested"])
        self.planner_errors = int(state["planner_errors"])
        self.degraded_intervals = int(state["degraded_intervals"])
        self.invalid_observations = int(state["invalid_observations"])
        plan_state = state["current_plan"]
        self._current_plan = (
            ScalingPlan.from_state(plan_state) if plan_state is not None else None
        )
        self.decisions = [Decision.from_state(d) for d in state["decisions"]]
        self.provenance = list(state["provenance"])
        return self


def _default_fallback() -> ReactiveScaler:
    from .reactive import ReactiveMaxScaler

    return ReactiveMaxScaler(window=6)
