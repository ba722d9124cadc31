"""Online model management: refit, shadow, promote, roll back.

:class:`AdaptationManager` closes the drift→adaptation loop.  The
health monitor detects that the live forecaster has gone stale (drift
alerts, coverage sag); this manager *acts* on it:

1. **refit** — clone the live forecaster and retrain it on the trailing
   history.  Warm-capable models (:class:`~repro.forecast.neural
   .NeuralForecaster`) are refit incrementally with
   ``fit(warm_start=True)`` — the trained network and scaler are
   reused, so a refit costs a fraction of a cold fit.  Alternatively a
   :class:`~repro.adaptation.pool.ModelPool` reselects the best of
   several registered candidate families on a holdout tail.
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
(the service layer does this) and is fully checkpointable: its
:meth:`state_dict` — candidate and rollback models included, pickled
and base64-embedded so ``state.json`` stays a single self-contained
JSON document — restores the whole state machine bit-identically
mid-shadow.

Everything is observable: ``adaptation.refits`` / ``.promotions`` /
``.rollbacks`` / ``.rejections`` counters, an ``adaptation/refit``
span, structured ``adaptation`` events for every transition, and
provenance records with ``source="promoted"`` / ``"rolled_back"`` in
the runtime's audit stream.
"""

from __future__ import annotations

import base64
import copy
import inspect
import pickle
from collections import deque
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.plan import _decode_value, _encode_value, _forecaster_owner
from ..obs import get_registry
from ..obs.monitor import ModelHealthMonitor
from .promotion import GUARDING, IDLE, SHADOWING, PromotionPolicy, parse_promotion_policy

if TYPE_CHECKING:  # pragma: no cover
    from ..core.runtime import AutoscalingRuntime
    from ..obs.alerts import Alert
    from .pool import ModelPool

__all__ = ["AdaptationError", "AdaptationManager"]

#: Kept in sync with the state_dict layout; bump on breaking changes.
#: The layout includes every class a pickled forecaster reaches: version 3
#: is ``repro.nn.module.Parameter`` as a plain ``(data, grad)`` holder.
#: float32 serving did not bump it: ``NeuralForecaster.__getstate__`` keeps
#: the serving copy out of every blob, and a version-3 blob written before
#: the copy existed restores as it is (the precision attribute it still
#: carries is inert; the copy is built on the first predict).
_STATE_VERSION = 3


class AdaptationError(RuntimeError):
    """An adaptation action is invalid in the current state."""


def _dump_model(model: Any) -> "str | None":
    """Pickle a forecaster to a base64 string (JSON-embeddable).

    Forecasters are plain Python + numpy object graphs (networks,
    scalers, ``np.random.Generator`` samplers), all of which pickle
    exactly — a loaded model is bit-identical to the saved one,
    including its sampler rng, which is what the checkpoint restore
    guarantee requires.
    """
    if model is None:
        return None
    return base64.b64encode(
        pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _load_model(blob: "str | None") -> Any:
    if blob is None:
        return None
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


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
    pool:
        Optional :class:`~repro.adaptation.pool.ModelPool`; when set,
        the default refit strategy becomes pool reselection instead of
        warm-starting the incumbent's own family.
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
        pool: "ModelPool | None" = None,
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
        self.pool = pool
        if history_size is None:
            history_size = max(
                1024, 8 * (runtime.context_length + runtime.horizon)
            )
        self.history: deque = deque(maxlen=history_size)

        self.candidate: Any = None
        self.previous: Any = None
        self.shadow_monitor: "ModelHealthMonitor | None" = None
        self.events: list[dict] = []
        self.refits = 0
        self.promotions = 0
        self.rollbacks = 0
        self.rejections = 0

        self._state = IDLE
        self._tick = runtime.tick - 1  # last tick fed via on_tick
        self._shadow_ticks = 0
        self._shadow_levels: "np.ndarray | None" = None
        self._shadow_values: "np.ndarray | None" = None
        self._shadow_position = 0
        self._candidate_mode: "str | None" = None
        self._incumbent_window_mark = 0
        self._promote_tick: "int | None" = None
        self._guard_window_mark = 0
        self._alert_mark = 0
        self._seen_alerts = self._alert_count()
        self._cooldown_until = runtime.tick  # no cooldown at start
        self._last_decision: "str | None" = None

    # -- small accessors -------------------------------------------------
    @property
    def state(self) -> str:
        """Current state machine position: idle/shadowing/guarding."""
        return self._state

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
        self.events.append(entry)
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
        tick = int(tick)
        if value is not None:
            # Shadow BEFORE appending: the candidate must forecast from
            # the same trailing context the incumbent planned from
            # (observations strictly before this tick).
            if self._state == SHADOWING and self.candidate is not None:
                self._shadow_step(tick, float(value), planned)
            self.history.append(float(value))
        self._tick = tick
        if self._state == SHADOWING:
            self._maybe_promote(tick)
        elif self._state == GUARDING:
            self._guard(tick)
        self._watch_alerts(tick)

    def _shadow_step(self, tick: int, value: float, planned: bool) -> None:
        context_length = self.runtime.context_length
        if len(self.history) < context_length:
            return
        if (
            planned
            or self._shadow_values is None
            or self._shadow_position >= self._shadow_values.shape[1]
        ):
            context = np.asarray(self.history, dtype=np.float64)[
                -context_length:
            ]
            levels = getattr(self.runtime.planner, "quantile_levels", None)
            forecast = self.candidate.predict(
                context, levels=levels, start_index=tick - context_length
            )
            self._shadow_levels = np.asarray(forecast.levels, dtype=np.float64)
            self._shadow_values = np.asarray(forecast.values, dtype=np.float64)
            self._shadow_position = 0
        position = min(
            self._shadow_position, self._shadow_values.shape[1] - 1
        )
        self.shadow_monitor.observe(
            self._shadow_levels,
            self._shadow_values[:, position],
            value,
            time_index=tick,
        )
        self._shadow_position += 1
        self._shadow_ticks += 1

    def _maybe_promote(self, tick: int) -> None:
        incumbent_windows = self.runtime.monitor.windows[
            self._incumbent_window_mark :
        ]
        promote, reason = self.policy.decide(
            self.shadow_monitor.windows, incumbent_windows
        )
        self._last_decision = reason
        if promote:
            self.promote(reason=reason)
        elif self._shadow_ticks >= self.shadow_window:
            self.reject(reason=f"shadow budget exhausted: {reason}")

    def _guard(self, tick: int) -> None:
        engine = self._alert_engine()
        if engine is not None:
            for alert in engine.alerts[self._alert_mark :]:
                if self._alert_is_post_promotion(alert):
                    self.rollback(reason=f"alert: {alert.rule.name}")
                    return
            self._alert_mark = len(engine.alerts)
        survived = [
            w
            for w in self.runtime.monitor.windows[self._guard_window_mark :]
            if w.start_index >= self._promote_tick
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
        windows = self.runtime.monitor.windows
        if 0 <= alert.window < len(windows):
            return windows[alert.window].start_index >= self._promote_tick
        return alert.end_index >= self._promote_tick

    def _watch_alerts(self, tick: int) -> None:
        count = self._alert_count()
        if (
            count > self._seen_alerts
            and self._state == IDLE
            and self.auto_refit
            and tick >= self._cooldown_until
        ):
            engine = self._alert_engine()
            trigger = engine.alerts[-1]
            try:
                self.refit(reason=f"alert: {trigger.rule.name}")
            except (AdaptationError, ValueError) as error:
                self._event(tick, "refit_failed", reason=str(error))
        self._seen_alerts = count

    # -- transitions -------------------------------------------------------
    def refit(
        self,
        *,
        reason: str = "manual",
        strategy: "str | None" = None,
        force: bool = False,
    ) -> dict:
        """Train a candidate on the trailing history and start shadowing.

        ``strategy`` is ``"warm"`` (clone the live model, warm-start
        when supported), ``"pool"`` (reselect from the registered
        :class:`~repro.adaptation.pool.ModelPool`), or None for the
        default (pool when one is configured, else warm).  Raises
        :class:`AdaptationError` while guarding, or while shadowing
        unless ``force`` (which rejects the current candidate first).
        """
        tick = self._tick
        if self._state == GUARDING:
            raise AdaptationError(
                "cannot refit while guarding a promotion — rollback or "
                "wait for the guard to commit"
            )
        if self._state == SHADOWING:
            if not force:
                raise AdaptationError(
                    "already shadowing a candidate — pass force to replace it"
                )
            self.reject(reason="superseded by forced refit")
        if strategy is None:
            strategy = "pool" if self.pool is not None else "warm"
        if strategy not in ("warm", "pool"):
            raise ValueError("strategy must be 'warm' or 'pool'")
        if strategy == "pool" and self.pool is None:
            raise AdaptationError("no model pool registered")

        series = np.asarray(self.history, dtype=np.float64)
        context_length = self.runtime.context_length
        horizon = self.runtime.horizon
        if len(series) < context_length + horizon + 1:
            raise AdaptationError(
                f"not enough history to refit: have {len(series)} "
                f"observations, need {context_length + horizon + 1}"
            )
        # self.history holds the observations for ticks
        # (tick - len + 1) .. tick — phase-aligns calendar features.
        start_index = tick + 1 - len(series)
        owner = self._forecaster_owner()
        incumbent = owner.forecaster
        registry = get_registry()
        levels = getattr(self.runtime.planner, "quantile_levels", None)

        if strategy == "pool":
            with registry.span("adaptation/refit", strategy="pool"):
                name, candidate, scores = self.pool.select(
                    series,
                    context_length=context_length,
                    horizon=horizon,
                    levels=levels,
                    start_index=start_index,
                )
            mode = f"pool:{name}"
            detail = {"scores": scores}
        else:
            candidate = copy.deepcopy(incumbent)
            warm = _supports_warm_start(candidate)
            with registry.span(
                "adaptation/refit",
                strategy="warm" if warm else "cold",
                model=type(candidate).__name__,
            ):
                if warm:
                    candidate.fit(
                        series,
                        warm_start=True,
                        epochs=self.refit_epochs,
                        start_index=start_index,
                    )
                else:
                    candidate.fit(series)
            mode = "warm" if warm else "cold"
            detail = {}

        self.candidate = candidate
        self._candidate_mode = mode
        self.shadow_monitor = ModelHealthMonitor(
            window=self.runtime.monitor.window
        )
        self._state = SHADOWING
        self._shadow_ticks = 0
        self._shadow_levels = None
        self._shadow_values = None
        self._shadow_position = 0
        self._incumbent_window_mark = len(self.runtime.monitor.windows)
        self.refits += 1
        registry.counter("adaptation.refits", strategy=strategy).inc()
        return self._event(
            tick,
            "refit",
            reason=reason,
            strategy=strategy,
            mode=mode,
            model=type(candidate).__name__,
            history=len(series),
            **detail,
        )

    def promote(self, *, reason: str = "manual") -> dict:
        """Swap the shadow candidate into the live planner.

        Keeps the displaced incumbent for rollback and enters the guard
        state (unless ``guard_windows == 0``, which commits at once).
        """
        if self._state != SHADOWING or self.candidate is None:
            raise AdaptationError("no shadow candidate to promote")
        tick = self._tick
        owner = self._forecaster_owner()
        self.previous = owner.forecaster
        owner.forecaster = self.candidate
        model = type(self.candidate).__name__
        self.candidate = None
        self.shadow_monitor = None
        self._shadow_levels = None
        self._shadow_values = None
        self._shadow_position = 0
        self.runtime.request_replan()
        self._promote_tick = tick
        self._guard_window_mark = len(self.runtime.monitor.windows)
        self._alert_mark = self._alert_count()
        self._state = GUARDING
        self.promotions += 1
        get_registry().counter("adaptation.promotions").inc()
        self._provenance(
            tick,
            "promoted",
            strategy=model,
            mode=self._candidate_mode,
            reason=reason,
        )
        entry = self._event(
            tick,
            "promote",
            reason=reason,
            model=model,
            mode=self._candidate_mode,
            shadow_ticks=self._shadow_ticks,
        )
        if self.policy.guard_windows == 0:
            self._commit(tick)
        return entry

    def rollback(self, *, reason: str = "manual") -> dict:
        """Reinstate the pre-promotion model (guard state only)."""
        if self._state != GUARDING or self.previous is None:
            raise AdaptationError("no guarded promotion to roll back")
        tick = self._tick
        owner = self._forecaster_owner()
        demoted = type(owner.forecaster).__name__
        owner.forecaster = self.previous
        self.previous = None
        self.runtime.request_replan()
        self._state = IDLE
        self._promote_tick = None
        self._cooldown_until = tick + self.cooldown
        self.rollbacks += 1
        get_registry().counter("adaptation.rollbacks").inc()
        self._provenance(tick, "rolled_back", strategy=demoted, reason=reason)
        return self._event(tick, "rollback", reason=reason, model=demoted)

    def reject(self, *, reason: str = "manual") -> dict:
        """Discard the shadow candidate without promoting it."""
        if self._state != SHADOWING or self.candidate is None:
            raise AdaptationError("no shadow candidate to reject")
        tick = self._tick
        model = type(self.candidate).__name__
        self.candidate = None
        self.shadow_monitor = None
        self._shadow_levels = None
        self._shadow_values = None
        self._shadow_position = 0
        self._state = IDLE
        self._cooldown_until = tick + self.cooldown
        self.rejections += 1
        get_registry().counter("adaptation.rejections").inc()
        return self._event(tick, "reject", reason=reason, model=model)

    def _commit(self, tick: int) -> None:
        """Guard survived: the promotion becomes permanent."""
        self.previous = None
        self._state = IDLE
        self._promote_tick = None
        self._cooldown_until = tick + self.cooldown
        get_registry().counter("adaptation.commits").inc()
        self._event(tick, "commit", reason="guard windows passed")

    # -- inspection --------------------------------------------------------
    def status(self) -> dict:
        """JSON-safe snapshot for ``GET /adaptation`` and ``/health``."""
        owner = None
        try:
            owner = self._forecaster_owner()
        except AdaptationError:
            pass
        return {
            "state": self._state,
            "policy": self.policy.spec,
            "live_model": (
                type(owner.forecaster).__name__ if owner is not None else None
            ),
            "candidate": (
                type(self.candidate).__name__
                if self.candidate is not None
                else None
            ),
            "candidate_mode": self._candidate_mode,
            "shadow_ticks": self._shadow_ticks,
            "shadow_window": self.shadow_window,
            "auto_refit": self.auto_refit,
            "cooldown_until": self._cooldown_until,
            "refits": self.refits,
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "rejections": self.rejections,
            "last_decision": self._last_decision,
            "events": self.events[-20:],
        }

    # -- checkpoint/restore ------------------------------------------------
    def state_dict(self) -> dict:
        """The complete adaptation state as a JSON-safe dict.

        Includes the live forecaster (not just the candidate): after a
        promotion the planner may hold a model that the config-driven
        rebuild path cannot reproduce, so the checkpoint must carry the
        object itself for the restore to be bit-identical.
        """
        owner = None
        try:
            owner = self._forecaster_owner()
        except AdaptationError:
            pass
        return {
            "version": _STATE_VERSION,
            "state": self._state,
            "tick": int(self._tick),
            "history": [float(v) for v in self.history],
            "live_model": _dump_model(
                owner.forecaster if owner is not None else None
            ),
            "candidate": _dump_model(self.candidate),
            "previous": _dump_model(self.previous),
            "candidate_mode": self._candidate_mode,
            "shadow_monitor": (
                self.shadow_monitor.state_dict()
                if self.shadow_monitor is not None
                else None
            ),
            "shadow_ticks": int(self._shadow_ticks),
            "shadow_levels": _encode_value(self._shadow_levels),
            "shadow_values": _encode_value(self._shadow_values),
            "shadow_position": int(self._shadow_position),
            "incumbent_window_mark": int(self._incumbent_window_mark),
            "promote_tick": (
                int(self._promote_tick)
                if self._promote_tick is not None
                else None
            ),
            "guard_window_mark": int(self._guard_window_mark),
            "alert_mark": int(self._alert_mark),
            "seen_alerts": int(self._seen_alerts),
            "cooldown_until": int(self._cooldown_until),
            "last_decision": self._last_decision,
            "events": [dict(e) for e in self.events],
            "refits": int(self.refits),
            "promotions": int(self.promotions),
            "rollbacks": int(self.rollbacks),
            "rejections": int(self.rejections),
        }

    def load_state_dict(self, state: dict) -> "AdaptationManager":
        """Restore state captured by :meth:`state_dict` in place.

        Replaces the planner's live forecaster with the checkpointed
        object — call *after* the generic checkpoint restore so the
        promoted/rolled-back model wins over the config-rebuilt one.
        """
        version = state.get("version")
        if version != _STATE_VERSION:
            raise ValueError(
                f"unsupported adaptation state version {version!r} "
                f"(this build reads version {_STATE_VERSION})"
            )
        self._state = state["state"]
        self._tick = int(state["tick"])
        self.history = deque(
            (float(v) for v in state["history"]), maxlen=self.history.maxlen
        )
        live = _load_model(state.get("live_model"))
        if live is not None:
            self._forecaster_owner().forecaster = live
        self.candidate = _load_model(state.get("candidate"))
        self.previous = _load_model(state.get("previous"))
        self._candidate_mode = state.get("candidate_mode")
        if state["shadow_monitor"] is not None:
            self.shadow_monitor = ModelHealthMonitor(
                window=self.runtime.monitor.window
            )
            self.shadow_monitor.load_state_dict(state["shadow_monitor"])
        else:
            self.shadow_monitor = None
        self._shadow_ticks = int(state["shadow_ticks"])
        self._shadow_levels = _decode_value(state["shadow_levels"])
        self._shadow_values = _decode_value(state["shadow_values"])
        self._shadow_position = int(state["shadow_position"])
        self._incumbent_window_mark = int(state["incumbent_window_mark"])
        promote_tick = state["promote_tick"]
        self._promote_tick = (
            int(promote_tick) if promote_tick is not None else None
        )
        self._guard_window_mark = int(state["guard_window_mark"])
        self._alert_mark = int(state["alert_mark"])
        self._seen_alerts = int(state["seen_alerts"])
        self._cooldown_until = int(state["cooldown_until"])
        self._last_decision = state["last_decision"]
        self.events = [dict(e) for e in state["events"]]
        self.refits = int(state["refits"])
        self.promotions = int(state["promotions"])
        self.rollbacks = int(state["rollbacks"])
        self.rejections = int(state["rejections"])
        return self
