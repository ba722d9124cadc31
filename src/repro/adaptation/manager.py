"""Online model management: refit, shadow, promote, roll back.

:class:`AdaptationManager` closes the drift→adaptation loop.  The
health monitor detects that the live forecaster has gone stale (drift
alerts, coverage sag); this manager *acts* on it:

1. **refit** — clone the live forecaster and retrain it on the trailing
   history.  Warm-capable models (:class:`~repro.forecast.neural
   .NeuralForecaster`) are refit incrementally with
   ``fit(warm_start=True)`` — the trained network and scaler are
   reused, so a refit costs a fraction of a cold fit.
2. **shadow** — the candidate forecasts every tick alongside the live
   model, from *exactly* the context the incumbent planned from, scored
   by its own :class:`~repro.obs.monitor.ModelHealthMonitor`.  It never
   actuates.
3. **promote** — when the :class:`~repro.adaptation.promotion
   .PromotionPolicy` finds the candidate's rolling wQL/calibration
   better than the incumbent's over the soak span, the candidate is
   swapped into the live planner (and a replan requested); the old
   model is retained for rollback.
4. **guard / rollback / commit** — for ``guard_windows`` post-promotion
   health windows, any fresh alert that judges a fully post-promotion
   span rolls the swap back; surviving the guard commits it.

The manager is driven by one :meth:`on_tick` call per served interval
(the service layer does this) and is fully checkpointable: every mutable
field is one :class:`AdaptationState` value, and :meth:`state_dict`
serialises exactly its fields — the candidate and rollback models as
their own ``state_dict()`` arrays, never as serialised objects — so a
restored daemon resumes mid-shadow bit-identically.

Everything is observable: ``adaptation.refits`` / ``.promotions`` /
``.rollbacks`` / ``.rejections`` counters, an ``adaptation/refit``
span, structured ``adaptation`` events for every transition, and
provenance records with ``source="promoted"`` / ``"rolled_back"`` in
the runtime's audit stream.
"""

from __future__ import annotations

import copy
import inspect
from collections import deque
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.plan import _decode_value, _encode_value, _forecaster_owner
from ..forecast.base import _load_state
from ..obs import get_registry
from ..obs.monitor import ModelHealthMonitor
from .promotion import GUARDING, IDLE, SHADOWING, PromotionPolicy, parse_promotion_policy

if TYPE_CHECKING:  # pragma: no cover
    from ..core.runtime import AutoscalingRuntime
    from ..obs.alerts import Alert

__all__ = ["AdaptationError", "AdaptationManager"]

#: Bump when a field of :class:`AdaptationState` changes meaning.  Models
#: are their ``state_dict()`` entries, so renaming or reshaping a
#: forecaster class does not bump it - only a change of the entries a
#: family writes would.
_STATE_VERSION = 5


class AdaptationError(RuntimeError):
    """An adaptation action is invalid in the current state."""


@dataclass(slots=True)
class AdaptationState:
    """Every mutable field of the state machine — what a checkpoint holds of it.

    ``candidate`` / ``previous`` are forecaster objects, serialised as
    their ``state_dict()``.  Both are fitted clones of the forecaster the
    loop was configured with, so a restore loads each into a copy of it.
    """

    phase: str = IDLE
    tick: int = 0  # last tick fed via on_tick
    history: deque = field(default_factory=deque)
    candidate: Any = None
    candidate_mode: "str | None" = None
    previous: Any = None
    shadow_monitor: "ModelHealthMonitor | None" = None
    shadow_ticks: int = 0
    shadow_levels: "np.ndarray | None" = None
    shadow_values: "np.ndarray | None" = None
    shadow_position: int = 0
    incumbent_window_mark: int = 0
    promote_tick: "int | None" = None
    guard_window_mark: int = 0
    alert_mark: int = 0
    seen_alerts: int = 0
    cooldown_until: int = 0
    last_decision: "str | None" = None
    events: list = field(default_factory=list)
    refits: int = 0
    promotions: int = 0
    rollbacks: int = 0
    rejections: int = 0


def _require_state_protocol(forecaster: Any, role: str) -> None:
    if not (hasattr(forecaster, "state_dict") and hasattr(forecaster, "load_state_dict")):
        raise ValueError(
            f"{role} {type(forecaster).__name__} does not implement state_dict() / "
            "load_state_dict(), which is how adaptation checkpoints the models "
            "it holds (docs/forecasting.md lists the families that do)"
        )


def _supports_warm_start(model: Any) -> bool:
    try:
        return "warm_start" in inspect.signature(type(model).fit).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        return False


class AdaptationManager:
    """Canary-style model management driven by the health monitor.

    Parameters
    ----------
    runtime:
        The live :class:`~repro.core.runtime.AutoscalingRuntime`.  Must
        have a :class:`~repro.obs.monitor.ModelHealthMonitor` attached —
        promotion is a *comparison* against the incumbent's windows, and
        auto-refit triggers off the monitor's alert engine.
    policy:
        :class:`~repro.adaptation.promotion.PromotionPolicy`, a spec
        string for :func:`~repro.adaptation.promotion
        .parse_promotion_policy`, or None for the defaults.
    shadow_window:
        Maximum ticks a candidate may shadow without earning promotion
        before it is rejected (the soak *budget*; the policy's
        ``soak_windows`` is the *minimum* evidence).
    history_size:
        Trailing observations retained for refits.  Defaults to the
        larger of 1024 and 8 context+horizon spans.
    refit_epochs:
        Epoch budget for warm refits (passed to ``fit(epochs=...)``
        when the model supports it); None uses the model's configured
        epochs with its own early stopping.
    cooldown:
        Ticks after a rejection/rollback/commit during which alert-
        driven refits are suppressed (manual ``refit()`` ignores it) —
        without it a noisy alert rule would thrash refits back to back.
    auto_refit:
        When True (default), any *new* alert from the incumbent
        monitor's engine triggers a refit while idle.
    """

    def __init__(
        self,
        runtime: "AutoscalingRuntime",
        *,
        policy: "PromotionPolicy | str | None" = None,
        shadow_window: int = 96,
        history_size: "int | None" = None,
        refit_epochs: "int | None" = None,
        cooldown: int = 48,
        auto_refit: bool = True,
    ) -> None:
        if runtime.monitor is None:
            raise ValueError(
                "AdaptationManager requires a runtime with a health monitor "
                "attached — promotion compares candidate and incumbent "
                "monitor windows"
            )
        if shadow_window < 1:
            raise ValueError("shadow_window must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if isinstance(policy, str):
            policy = parse_promotion_policy(policy)
        self.runtime = runtime
        self.policy = policy if policy is not None else PromotionPolicy()
        self.shadow_window = shadow_window
        self.refit_epochs = refit_epochs
        self.cooldown = cooldown
        self.auto_refit = auto_refit
        _require_state_protocol(self._forecaster_owner().forecaster, "forecaster")
        if history_size is None:
            history_size = max(
                1024, 8 * (runtime.context_length + runtime.horizon)
            )
        #: Every mutable field; the phases below mutate it in place.
        self.machine = AdaptationState(
            tick=runtime.tick - 1,
            history=deque(maxlen=history_size),
            seen_alerts=self._alert_count(),
            cooldown_until=runtime.tick,  # no cooldown at start
        )
        # The shadow forecast's levels and their LevelGrid, built once per
        # forecast; not state: a restore rebuilds it on the next shadow tick.
        self._shadow_grid: tuple = (None, None)

    # -- small accessors -------------------------------------------------
    @property
    def state(self) -> str:
        """Current state machine position: idle/shadowing/guarding."""
        return self.machine.phase

    def __getattr__(self, name: str) -> Any:
        """Read a field of :attr:`machine` under its own name
        (``manager.candidate``, ``.history``, ``.events``, ``.refits`` ...)."""
        if name in AdaptationState.__slots__:
            return getattr(self.machine, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _forecaster_owner(self) -> Any:
        """The object whose ``.forecaster`` attribute is the live model."""
        owner = _forecaster_owner(self.runtime.planner)
        if owner is None:
            raise AdaptationError(
                "planner exposes no .forecaster to manage — adaptation needs "
                "a forecaster-backed planner (e.g. RobustPredictiveAutoscaler)"
            )
        return owner

    def _alert_engine(self):
        return self.runtime.monitor.alerts

    def _alert_count(self) -> int:
        engine = self._alert_engine()
        return len(engine.alerts) if engine is not None else 0

    def _event(self, tick: int, action: str, **detail) -> dict:
        entry = {"tick": int(tick), "action": action, **detail}
        self.machine.events.append(entry)
        get_registry().emit_event("adaptation", f"adaptation.{action}", **entry)
        return entry

    def _provenance(self, tick: int, source: str, **fields) -> None:
        """Emit a provenance record for a model swap (promote/rollback)."""
        registry = get_registry()
        if not (self.runtime.record_provenance or registry.active):
            return
        record = {"time_index": int(tick), "source": source, **fields}
        registry.emit_event("provenance", "adaptation.decision", **record)
        if self.runtime.record_provenance:
            self.runtime.provenance.append(record)

    # -- the per-interval hook -------------------------------------------
    def on_tick(self, tick: int, value: "float | None", planned: bool) -> None:
        """Advance the adaptation loop by one served interval.

        Called by the service layer *after* ``runtime.step``; ``value``
        is the observation actually ingested (None when rejected) and
        ``planned`` flags a planning boundary — the shadow candidate
        replans on the same cadence so both models always forecast from
        the same context.
        """
        s = self.machine
        tick = int(tick)
        if value is not None:
            # Shadow BEFORE appending: the candidate must forecast from
            # the same trailing context the incumbent planned from
            # (observations strictly before this tick).
            if s.phase == SHADOWING and s.candidate is not None:
                self._shadow_step(tick, float(value), planned)
            s.history.append(float(value))
        s.tick = tick
        if s.phase == SHADOWING:
            self._maybe_promote(tick)
        elif s.phase == GUARDING:
            self._guard(tick)
        self._watch_alerts(tick)

    def _shadow_step(self, tick: int, value: float, planned: bool) -> None:
        s = self.machine
        context_length = self.runtime.context_length
        if len(s.history) < context_length:
            return
        if (
            planned
            or s.shadow_values is None
            or s.shadow_position >= s.shadow_values.shape[1]
        ):
            context = np.asarray(s.history, dtype=np.float64)[
                -context_length:
            ]
            levels = getattr(self.runtime.planner, "quantile_levels", None)
            forecast = s.candidate.predict(
                context, levels=levels, start_index=tick - context_length
            )
            s.shadow_levels = np.asarray(forecast.levels, dtype=np.float64)
            s.shadow_values = np.asarray(forecast.values, dtype=np.float64)
            s.shadow_position = 0
        levels, grid = self._shadow_grid
        if levels is not s.shadow_levels:  # a new forecast, or a restore
            grid = s.shadow_monitor.level_grid(s.shadow_levels)
            self._shadow_grid = (s.shadow_levels, grid)
        position = min(
            s.shadow_position, s.shadow_values.shape[1] - 1
        )
        s.shadow_monitor.observe(
            grid,
            s.shadow_values[:, position],
            value,
            time_index=tick,
        )
        s.shadow_position += 1
        s.shadow_ticks += 1

    def _maybe_promote(self, tick: int) -> None:
        s = self.machine
        incumbent_windows = self.runtime.monitor.windows[
            s.incumbent_window_mark :
        ]
        promote, reason = self.policy.decide(
            s.shadow_monitor.windows, incumbent_windows
        )
        s.last_decision = reason
        if promote:
            self.promote(reason=reason)
        elif s.shadow_ticks >= self.shadow_window:
            self.reject(reason=f"shadow budget exhausted: {reason}")

    def _guard(self, tick: int) -> None:
        s = self.machine
        engine = self._alert_engine()
        if engine is not None:
            for alert in engine.alerts[s.alert_mark :]:
                if self._alert_is_post_promotion(alert):
                    self.rollback(reason=f"alert: {alert.rule.name}")
                    return
            s.alert_mark = len(engine.alerts)
        survived = [
            w
            for w in self.runtime.monitor.windows[s.guard_window_mark :]
            if w.start_index >= s.promote_tick
        ]
        if len(survived) >= self.policy.guard_windows:
            self._commit(tick)

    def _alert_is_post_promotion(self, alert: "Alert") -> bool:
        """Does this alert judge a span served by the promoted model?

        A window straddling the promotion carries the *old* model's
        residuals too; rolling back on it would punish the candidate
        for the incumbent's sins.  Only windows that started at or
        after the promotion tick count.
        """
        s = self.machine
        windows = self.runtime.monitor.windows
        if 0 <= alert.window < len(windows):
            return windows[alert.window].start_index >= s.promote_tick
        return alert.end_index >= s.promote_tick

    def _watch_alerts(self, tick: int) -> None:
        s = self.machine
        count = self._alert_count()
        if (
            count > s.seen_alerts
            and s.phase == IDLE
            and self.auto_refit
            and tick >= s.cooldown_until
        ):
            engine = self._alert_engine()
            trigger = engine.alerts[-1]
            try:
                self.refit(reason=f"alert: {trigger.rule.name}")
            except (AdaptationError, ValueError) as error:
                self._event(tick, "refit_failed", reason=str(error))
        s.seen_alerts = count

    # -- transitions -------------------------------------------------------
    def refit(self, *, reason: str = "manual", force: bool = False) -> dict:
        """Clone the live model, train it on the trailing history, start shadowing.

        The clone is warm-started when its ``fit`` supports it and
        cold-fit otherwise.  Raises :class:`AdaptationError` while
        guarding, or while shadowing unless ``force`` (which rejects the
        current candidate first).
        """
        s = self.machine
        tick = s.tick
        if s.phase == GUARDING:
            raise AdaptationError(
                "cannot refit while guarding a promotion — rollback or "
                "wait for the guard to commit"
            )
        if s.phase == SHADOWING:
            if not force:
                raise AdaptationError(
                    "already shadowing a candidate — pass force to replace it"
                )
            self.reject(reason="superseded by forced refit")

        series = np.asarray(s.history, dtype=np.float64)
        context_length = self.runtime.context_length
        horizon = self.runtime.horizon
        if len(series) < context_length + horizon + 1:
            raise AdaptationError(
                f"not enough history to refit: have {len(series)} "
                f"observations, need {context_length + horizon + 1}"
            )
        # the history holds the observations for ticks
        # (tick - len + 1) .. tick — phase-aligns calendar features.
        start_index = tick + 1 - len(series)
        registry = get_registry()
        candidate = copy.deepcopy(self._forecaster_owner().forecaster)
        warm = _supports_warm_start(candidate)
        mode = "warm" if warm else "cold"
        with registry.span("adaptation/refit", strategy=mode, model=type(candidate).__name__):
            if warm:
                candidate.fit(
                    series,
                    warm_start=True,
                    epochs=self.refit_epochs,
                    start_index=start_index,
                )
            else:
                candidate.fit(series)

        s.candidate = candidate
        s.candidate_mode = mode
        s.shadow_monitor = ModelHealthMonitor(
            window=self.runtime.monitor.window
        )
        s.phase = SHADOWING
        s.shadow_ticks = 0
        s.shadow_levels = None
        s.shadow_values = None
        s.shadow_position = 0
        s.incumbent_window_mark = len(self.runtime.monitor.windows)
        s.refits += 1
        registry.counter("adaptation.refits", strategy="warm").inc()
        return self._event(
            tick,
            "refit",
            reason=reason,
            strategy="warm",
            mode=mode,
            model=type(candidate).__name__,
            history=len(series),
        )

    def promote(self, *, reason: str = "manual") -> dict:
        """Swap the shadow candidate into the live planner.

        Keeps the displaced incumbent for rollback and enters the guard
        state (unless ``guard_windows == 0``, which commits at once).
        """
        s = self.machine
        if s.phase != SHADOWING or s.candidate is None:
            raise AdaptationError("no shadow candidate to promote")
        tick = s.tick
        owner = self._forecaster_owner()
        s.previous, owner.forecaster = owner.forecaster, s.candidate
        model = type(s.candidate).__name__
        s.candidate = None
        s.shadow_monitor = None
        s.shadow_levels = None
        s.shadow_values = None
        s.shadow_position = 0
        self.runtime.request_replan()
        s.promote_tick = tick
        s.guard_window_mark = len(self.runtime.monitor.windows)
        s.alert_mark = self._alert_count()
        s.phase = GUARDING
        s.promotions += 1
        get_registry().counter("adaptation.promotions").inc()
        self._provenance(
            tick,
            "promoted",
            strategy=model,
            mode=s.candidate_mode,
            reason=reason,
        )
        entry = self._event(
            tick,
            "promote",
            reason=reason,
            model=model,
            mode=s.candidate_mode,
            shadow_ticks=s.shadow_ticks,
        )
        if self.policy.guard_windows == 0:
            self._commit(tick)
        return entry

    def rollback(self, *, reason: str = "manual") -> dict:
        """Reinstate the pre-promotion model (guard state only)."""
        s = self.machine
        if s.phase != GUARDING or s.previous is None:
            raise AdaptationError("no guarded promotion to roll back")
        tick = s.tick
        owner = self._forecaster_owner()
        demoted = type(owner.forecaster).__name__
        owner.forecaster, s.previous = s.previous, None
        self.runtime.request_replan()
        s.phase = IDLE
        s.promote_tick = None
        s.cooldown_until = tick + self.cooldown
        s.rollbacks += 1
        get_registry().counter("adaptation.rollbacks").inc()
        self._provenance(tick, "rolled_back", strategy=demoted, reason=reason)
        return self._event(tick, "rollback", reason=reason, model=demoted)

    def reject(self, *, reason: str = "manual") -> dict:
        """Discard the shadow candidate without promoting it."""
        s = self.machine
        if s.phase != SHADOWING or s.candidate is None:
            raise AdaptationError("no shadow candidate to reject")
        tick = s.tick
        model = type(s.candidate).__name__
        s.candidate = None
        s.shadow_monitor = None
        s.shadow_levels = None
        s.shadow_values = None
        s.shadow_position = 0
        s.phase = IDLE
        s.cooldown_until = tick + self.cooldown
        s.rejections += 1
        get_registry().counter("adaptation.rejections").inc()
        return self._event(tick, "reject", reason=reason, model=model)

    def _commit(self, tick: int) -> None:
        """Guard survived: the promotion becomes permanent."""
        s = self.machine
        s.previous = None
        s.phase = IDLE
        s.promote_tick = None
        s.cooldown_until = tick + self.cooldown
        get_registry().counter("adaptation.commits").inc()
        self._event(tick, "commit", reason="guard windows passed")

    # -- inspection --------------------------------------------------------
    def status(self) -> dict:
        """JSON-safe snapshot for ``GET /adaptation`` and ``/health``."""
        s = self.machine
        return {
            "state": s.phase,
            "policy": self.policy.spec,
            "live_model": type(self._forecaster_owner().forecaster).__name__,
            "candidate": (
                type(s.candidate).__name__
                if s.candidate is not None
                else None
            ),
            "candidate_mode": s.candidate_mode,
            "shadow_ticks": s.shadow_ticks,
            "shadow_window": self.shadow_window,
            "auto_refit": self.auto_refit,
            "cooldown_until": s.cooldown_until,
            "refits": s.refits,
            "promotions": s.promotions,
            "rollbacks": s.rollbacks,
            "rejections": s.rejections,
            "last_decision": s.last_decision,
            "events": s.events[-20:],
        }

    # -- checkpoint/restore ------------------------------------------------
    def state_dict(self) -> dict:
        """:attr:`machine`, field by field, as a JSON-safe dict.

        The live forecaster is not in it: the checkpoint writes that
        once, as its ``"model"`` (:mod:`repro.service.checkpoint`), and
        hands it back to :meth:`load_state_dict`.
        """
        state = {"version": _STATE_VERSION}
        for f in fields(AdaptationState):
            state[f.name] = _encode_value(getattr(self.machine, f.name))
        return state

    def load_state_dict(self, state: dict, model: "dict | None" = None) -> "AdaptationManager":
        """Replace :attr:`machine` with one captured by :meth:`state_dict`.

        ``model`` is the live forecaster's ``state_dict()`` as the
        checkpoint carries it.  Call on a freshly built loop: the live
        model loads into the forecaster the planner holds now, the
        configured one, and the candidate and previous models into
        clones of it.  The clones are loaded first and the live model -
        the only load in place - last: a state that does not fit is a
        ValueError naming the field, with manager, planner and
        forecaster as they were.
        """
        version = state.get("version")
        if version != _STATE_VERSION:
            raise ValueError(
                f"unsupported adaptation state version {version!r} "
                f"(this build reads version {_STATE_VERSION})"
            )
        loaded = AdaptationState(
            **{f.name: _decode_value(state[f.name]) for f in fields(AdaptationState)}
        )
        loaded.history = deque(loaded.history, maxlen=self.machine.history.maxlen)
        if loaded.shadow_monitor is not None:
            loaded.shadow_monitor = ModelHealthMonitor(
                window=self.runtime.monitor.window
            ).load_state_dict(loaded.shadow_monitor)
        live = self._forecaster_owner().forecaster
        for role in ("candidate", "previous"):
            record = getattr(loaded, role)
            if record is not None:
                skeleton = copy.deepcopy(live)
                setattr(loaded, role, _load_state(skeleton, record, f"adaptation.{role}"))
        if model is not None:
            _load_state(live, model, "model")
        self.machine = loaded
        return self
