"""The always-on service daemon around the runtime's step API.

:class:`ServiceRuntime` turns the batch closed loop into an event-driven
process, the deployment shape the paper's system actually runs as:

* **ingest** — telemetry ticks stream in from a pluggable
  :class:`~repro.service.sources.TelemetrySource`;
* **step** — each tick drives exactly one
  :meth:`~repro.core.runtime.AutoscalingRuntime.step` (maybe-plan →
  actuate → observe → monitor);
* **plan on schedule or on alert** — the runtime re-plans at its
  ``replan_every`` cadence, and when the health monitor's alert engine
  fires, the daemon requests an immediate replan at the next tick
  (``plan_on_alert``);
* **control plane** — a stdlib HTTP+JSON server
  (:class:`~repro.service.http.ControlPlane`) on the same event loop
  serves live forecasts, decisions, health, and the obs registry, and
  accepts ``POST /plan`` / ``POST /checkpoint``;
* **checkpoint/restore** — on demand (HTTP), automatically after
  ``checkpoint_every`` ticks, or at a fixed ``checkpoint_at`` tick; a
  restored daemon resumes mid-trace with bit-identical subsequent
  decisions (see :mod:`repro.service.checkpoint`).

Every committed decision is appended to the crash-safe
``decision_log`` (a :class:`~repro.obs.sinks.JsonlSink`), giving an
event log that survives a kill between checkpoints.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

from ..adaptation import AdaptationError, AdaptationManager
from ..core.runtime import AutoscalingRuntime, Decision, StepResult
from ..obs import PROMETHEUS_CONTENT_TYPE, get_registry, render_prometheus
from ..obs.sinks import JsonlSink
from ..obs.trace import TraceCollector
from .checkpoint import save_checkpoint
from .http import ControlPlane, HttpError, RawResponse
from .sources import TelemetrySource

__all__ = ["ServiceRuntime"]

#: How many recent ticks ``GET /series`` retains for dashboards.
_SERIES_RING = 512

#: Seconds an unpaced replay steps between two handoffs to the event
#: loop.  An event-loop pass is one ``epoll`` call; a pass after every
#: tick cost about a fifth of an idle tick.  Each event-loop step of a
#: control-plane request (accept, read, reply) waits for a handoff.
_HANDOFF_BUDGET_S = 0.001


def _handoff_budget(control: ControlPlane) -> float:
    """Seconds of stepping before the next handoff.

    While a control-plane connection is open the loop hands off after
    every tick, so each later event-loop step of its request (read,
    reply) waits for one tick, not for a millisecond of stepping.  The
    number of Python threads does not enter: the step loop releases the
    GIL to them after every tick without an event-loop pass.
    """
    return 0.0 if control.connections else _HANDOFF_BUDGET_S


def _parse_limit(query: dict, default: int) -> int:
    """``?limit=N`` with a 400 on anything that is not a positive int."""
    raw = query.get("limit", default)
    try:
        limit = int(raw)
    except (TypeError, ValueError):
        raise HttpError(400, f"limit must be an integer, got {raw!r}")
    if limit < 1:
        raise HttpError(400, "limit must be >= 1")
    return limit


def _wire_form(decision: Decision) -> dict:
    """What ``/decisions``, ``POST /plan`` and the decision log show of a
    decision: :meth:`Decision.summary`, ``time_index`` sent as ``tick``."""
    summary = decision.summary()
    return {"tick": summary.pop("time_index"), **summary}


class ServiceRuntime:
    """Asyncio daemon: telemetry in, scaling decisions and HTTP out.

    Parameters
    ----------
    runtime:
        The closed-loop :class:`~repro.core.runtime.AutoscalingRuntime`
        (with its monitor already attached, when health tracking is
        wanted).
    source:
        Where ticks come from; already ``seek()``-ed past processed
        ticks when restoring.
    host, port:
        Control-plane bind address; ``port=0`` (default) picks an
        ephemeral port, readable from :attr:`port` once serving.
    tick_interval:
        Seconds to wait between steps, pacing a replayed trace like a
        live feed; the control plane is served during each wait.  At 0
        (default) the replay steps as fast as it can and hands control
        to the control plane after each millisecond of stepping, so a
        request's accept waits at most about 1 ms plus the tick in
        flight; while a connection is open it hands off after every
        tick instead.  While other Python threads share the process it
        also releases the GIL to them after every tick
        (``os.sched_yield``).
    checkpoint_dir:
        Where ``POST /checkpoint`` and automatic checkpoints write;
        None disables checkpointing.
    checkpoint_every:
        Write a checkpoint every N processed ticks (None: only on
        demand).
    checkpoint_at:
        Write one checkpoint when the session has processed exactly N
        ticks — the deterministic hook the restore round-trip tests and
        the CI smoke job use.
    max_ticks:
        Stop after processing N ticks this session (None: run until
        the source ends or :meth:`request_stop`).
    config:
        Launch configuration embedded into checkpoints, so a restore
        can rebuild planner/source identically.
    decision_log:
        Path for the crash-safe JSONL decision log (one record per
        committed decision, flushed immediately).
    plan_on_alert:
        Re-plan at the next tick whenever the monitor's alert engine
        fires a new alert.
    adaptation:
        Optional :class:`~repro.adaptation.AdaptationManager`; when
        attached, every step also advances the adaptation loop (alert-
        triggered refits, shadow scoring, canary promotion/rollback)
        and the control plane gains ``GET /adaptation`` and
        ``POST /refit`` / ``/promote`` / ``/rollback``.  Its state
        rides along in checkpoints.
    tracer:
        Optional :class:`~repro.obs.trace.TraceCollector`; when given,
        :meth:`run` attaches it to the ambient registry and brackets
        every tick in one trace, written as one ``trace`` record that
        also carries the tick's counters and gauges; ``GET /traces``
        serves the ring.
    linger:
        Seconds to keep the control plane up after the tick stream
        ends (lets probes scrape final state; 0 exits immediately).
    """

    def __init__(
        self,
        runtime: AutoscalingRuntime,
        source: TelemetrySource,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval: float = 0.0,
        checkpoint_dir: "str | Path | None" = None,
        checkpoint_every: "int | None" = None,
        checkpoint_at: "int | None" = None,
        max_ticks: "int | None" = None,
        config: "dict | None" = None,
        decision_log: "str | Path | None" = None,
        plan_on_alert: bool = True,
        adaptation: "AdaptationManager | None" = None,
        tracer: "TraceCollector | None" = None,
        linger: float = 0.0,
    ) -> None:
        self.runtime = runtime
        self.source = source
        self.tick_interval = float(tick_interval)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_every = checkpoint_every
        self.checkpoint_at = checkpoint_at
        self.max_ticks = max_ticks
        self.config = dict(config) if config else {}
        self.decision_log_path = Path(decision_log) if decision_log else None
        self.plan_on_alert = plan_on_alert
        self.adaptation = adaptation
        self.tracer = tracer
        self.linger = float(linger)
        self.series: deque[dict] = deque(maxlen=_SERIES_RING)

        self.control = ControlPlane(self._routes(), host=host, port=port)
        self.ticks_processed = 0  # this session (restored ticks excluded)
        self.alert_replans = 0
        self.checkpoints_written = 0
        self.status = "starting"
        self.last_step: StepResult | None = None
        # Decision-log high-water mark into the runtime's in-process
        # audit list (empty after a restore): only decisions committed
        # under this daemon are logged.
        self._logged_decisions = len(runtime.decisions)
        self._decision_sink: JsonlSink | None = None
        self._stop = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started_at = time.monotonic()
        self._seen_alerts = self._alert_count()

    # -- public surface -------------------------------------------------
    @property
    def port(self) -> int | None:
        """Control-plane port (None until serving)."""
        return self.control.port

    def serve_forever(self) -> None:
        """Blocking entry point: run the daemon to completion."""
        asyncio.run(self.run())

    def request_stop(self) -> None:
        """Stop the daemon after the current step (thread-safe)."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._stop.set)
        else:
            self._stop.set()

    async def run(self) -> None:
        """The daemon: control plane up, step loop, linger, shutdown."""
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        if self.decision_log_path is not None:
            self._decision_sink = JsonlSink(self.decision_log_path)
        await self.control.start()
        self.status = "serving"
        previous_tracer = None
        if self.tracer is not None:
            previous_tracer = get_registry().set_tracer(self.tracer)
        try:
            await self._step_loop()
            self.status = "draining"
            if self.linger > 0 and not self._stop.is_set():
                await self._wait_for_stop(self.linger)
        finally:
            self.status = "stopped"
            if self.tracer is not None:
                get_registry().set_tracer(previous_tracer)
            await self.control.stop()
            if self._decision_sink is not None:
                self._decision_sink.close()

    # -- the loop --------------------------------------------------------
    async def _wait_for_stop(self, timeout: float) -> bool:
        """Serve the event loop for up to ``timeout`` seconds; True when a
        stop was requested meanwhile."""
        try:
            await asyncio.wait_for(self._stop.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            return False
        return True

    async def _step_loop(self) -> None:
        metrics = get_registry()
        tracer = metrics.tracer
        budget = _handoff_budget(self.control)
        handoff_at = time.perf_counter() + budget
        shared = threading.active_count() != 1
        async for value in self.source.ticks():
            if self._stop.is_set():
                return
            # One trace per tick (trace_id = tick) around the step and the
            # daemon's bookkeeping; the daemon opens no span of its own, so
            # span paths are the step's.
            tick = self.runtime.tick
            if tracer is not None:
                tracer.begin(tick)
            status = "error"
            try:
                self._serve_tick(value)
                status = "ok"
            finally:
                # The tick's counters and gauges, once, in its trace record
                # (one encode, one write); before the checkpoint so a crash
                # in a long write cannot lose them.
                trace = tracer.end(status) if tracer is not None else None
                if trace is None:
                    metrics.flush()
                elif metrics.active:
                    metrics.flush({"kind": "trace", **trace})
            if (
                self.checkpoint_at is not None
                and self.ticks_processed == self.checkpoint_at
            ) or (
                self.checkpoint_every
                and self.ticks_processed % self.checkpoint_every == 0
            ):
                self.write_checkpoint()
            if self.max_ticks is not None and self.ticks_processed >= self.max_ticks:
                return
            if self.tick_interval > 0:
                if await self._wait_for_stop(self.tick_interval):
                    return
                continue
            if shared:
                # A syscall that releases the GIL: a thread waiting for it
                # takes it now, not at CPython's next forced switch (5 ms).
                os.sched_yield()
            if time.perf_counter() >= handoff_at:
                # Control-plane requests interleave between steps, once
                # per budget of stepping rather than once per tick.  This
                # task resumes ahead of the I/O its pass's poll found, so
                # a handoff that ends a stretch takes three passes: the
                # accept runs in the first, the task it starts counts the
                # connection in the second, and the budget is read after.
                for _ in range(3 if budget else 1):
                    await asyncio.sleep(0)
                budget = _handoff_budget(self.control)
                handoff_at = time.perf_counter() + budget
                shared = threading.active_count() != 1

    def _serve_tick(self, value: float) -> None:
        """Step the runtime once and do the daemon's bookkeeping for it."""
        result = self.runtime.step(value)
        self.last_step = result
        self.ticks_processed += 1
        self.series.append(
            {
                "tick": result.tick,
                "workload": (
                    float(result.observed)
                    if result.observed is not None
                    else None
                ),
                "nodes": result.target_nodes,
            }
        )
        get_registry().counter("service.ticks").inc()
        self._drain_decisions()
        if self.plan_on_alert:
            self._check_alerts()
        if self.adaptation is not None:
            self.adaptation.on_tick(result.tick, result.observed, result.planned)

    def _alert_count(self) -> int:
        monitor = self.runtime.monitor
        if monitor is None or monitor.alerts is None:
            return 0
        return len(monitor.alerts.alerts)

    def _check_alerts(self) -> None:
        """A newly fired health alert triggers a replan at the next tick."""
        count = self._alert_count()
        if count > self._seen_alerts:
            self.runtime.request_replan()
            self.alert_replans += count - self._seen_alerts
            get_registry().counter("service.alert_replans").inc(
                count - self._seen_alerts
            )
        self._seen_alerts = count

    def _drain_decisions(self) -> None:
        """Append every not-yet-logged committed decision to the log.

        The runtime records decisions from several phases (predictive
        and degraded plans in maybe-plan, reactive fallback in actuate),
        so the daemon drains its audit log by high-water mark rather
        than trusting any single phase's return value.
        """
        decisions = self.runtime.decisions
        if self._decision_sink is not None:
            for decision in decisions[self._logged_decisions :]:
                self._decision_sink.emit({"kind": "decision", **_wire_form(decision)})
        self._logged_decisions = len(decisions)

    # -- checkpointing ----------------------------------------------------
    def write_checkpoint(self, path: "str | Path | None" = None) -> Path:
        """Write a checkpoint now; returns the checkpoint directory."""
        target = Path(path) if path else self.checkpoint_dir
        if target is None:
            raise HttpError(409, "no checkpoint directory configured")
        written = save_checkpoint(
            target,
            runtime=self.runtime,
            config=self.config,
            source_position=self.source.position,
            adaptation=self.adaptation,
        )
        self.checkpoints_written += 1
        get_registry().counter("service.checkpoints").inc()
        return written

    # -- control-plane handlers -------------------------------------------
    def _routes(self) -> dict:
        return {
            ("GET", "/health"): self._handle_health,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/forecast"): self._handle_forecast,
            ("GET", "/decisions"): self._handle_decisions,
            ("GET", "/traces"): self._handle_traces,
            ("GET", "/series"): self._handle_series,
            ("GET", "/adaptation"): self._handle_adaptation,
            ("POST", "/plan"): self._handle_plan,
            ("POST", "/checkpoint"): self._handle_checkpoint,
            ("POST", "/refit"): self._handle_refit,
            ("POST", "/promote"): self._handle_promote,
            ("POST", "/rollback"): self._handle_rollback,
        }

    def _handle_health(self, query: dict, body: Any) -> dict:
        runtime = self.runtime
        monitor = runtime.monitor
        return {
            "status": self.status,
            "uptime_s": time.monotonic() - self._started_at,
            "tick": runtime.tick,
            "ticks_processed": self.ticks_processed,
            "source_position": self.source.position,
            "decisions": runtime.state.decisions_committed,
            "planner_errors": runtime.planner_errors,
            "degraded_intervals": runtime.degraded_intervals,
            "invalid_observations": runtime.invalid_observations,
            "alert_replans": self.alert_replans,
            "checkpoints_written": self.checkpoints_written,
            "last_target_nodes": (
                self.last_step.target_nodes if self.last_step else None
            ),
            "alerts_fired": self._alert_count(),
            "phases": (
                self.last_step.phase_seconds if self.last_step else None
            ),
            "slo": (
                monitor.slos.status()
                if monitor is not None and monitor.slos is not None
                else None
            ),
            "monitor": monitor.summary() if monitor is not None else None,
            "adaptation": (
                self.adaptation.status()
                if self.adaptation is not None
                else None
            ),
        }

    def _handle_metrics(self, query: dict, body: Any) -> Any:
        fmt = query.get("format", "json")
        if fmt == "prometheus":
            return RawResponse(
                render_prometheus(get_registry().snapshot()),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        if fmt != "json":
            raise HttpError(
                400, f"unknown format {fmt!r} (expected json or prometheus)"
            )
        return get_registry().snapshot()

    def _handle_forecast(self, query: dict, body: Any) -> dict:
        plan = self.runtime.state.current_plan
        if plan is None:
            raise HttpError(409, "no committed plan yet (cold start)")
        payload = {
            "tick": self.runtime.tick,
            "strategy": plan.strategy,
            "horizon": int(plan.horizon),
            "nodes": plan.nodes.tolist(),
            "degraded": bool(plan.metadata.get("degraded", False)),
        }
        levels = plan.metadata.get("forecast_levels")
        values = plan.metadata.get("forecast_values")
        if levels is not None and values is not None:
            payload["levels"] = [float(level) for level in levels]
            payload["values"] = [
                [float(v) for v in row] for row in values
            ]
        return payload

    def _handle_decisions(self, query: dict, body: Any) -> dict:
        limit = _parse_limit(query, default=50)
        decisions = self.runtime.decisions[-limit:]
        return {
            "total": self.runtime.state.decisions_committed,
            "decisions": [_wire_form(d) for d in decisions],
        }

    def _handle_traces(self, query: dict, body: Any) -> dict:
        limit = _parse_limit(query, default=10)
        tracer = self.tracer or get_registry().tracer
        if tracer is None:
            return {"total": 0, "tracing": False, "traces": []}
        traces = tracer.traces(limit)
        return {
            "total": len(tracer.finished),
            "tracing": True,
            "traces": traces,
        }

    def _handle_series(self, query: dict, body: Any) -> dict:
        limit = _parse_limit(query, default=120)
        points = list(self.series)[-limit:]
        return {
            "total": len(self.series),
            "threshold": float(self.runtime.threshold),
            "points": points,
        }

    def _handle_plan(self, query: dict, body: Any) -> dict:
        decision = self.runtime.maybe_plan(force=True)
        if decision is None:
            raise HttpError(
                409,
                "cannot plan yet: context window not full "
                f"({len(self.runtime.state.history)}/{self.runtime.context_length})",
            )
        self._drain_decisions()
        return _wire_form(decision)

    def _require_adaptation(self) -> AdaptationManager:
        if self.adaptation is None:
            raise HttpError(
                409, "adaptation is not enabled (start with --adapt)"
            )
        return self.adaptation

    def _handle_adaptation(self, query: dict, body: Any) -> dict:
        return self._require_adaptation().status()

    def _handle_refit(self, query: dict, body: Any) -> dict:
        manager = self._require_adaptation()
        body = body if isinstance(body, dict) else {}
        if "strategy" in body:
            raise HttpError(
                400, "refit takes no strategy: it always refits a clone of the live model"
            )
        force = body.get("force", False)
        if not isinstance(force, bool):
            raise HttpError(400, f"force must be a JSON boolean, got {force!r}")
        try:
            return manager.refit(reason=str(body.get("reason", "operator")), force=force)
        except AdaptationError as error:
            raise HttpError(409, str(error))

    def _handle_promote(self, query: dict, body: Any) -> dict:
        manager = self._require_adaptation()
        body = body if isinstance(body, dict) else {}
        try:
            return manager.promote(reason=str(body.get("reason", "operator")))
        except AdaptationError as error:
            raise HttpError(409, str(error))

    def _handle_rollback(self, query: dict, body: Any) -> dict:
        manager = self._require_adaptation()
        body = body if isinstance(body, dict) else {}
        try:
            return manager.rollback(reason=str(body.get("reason", "operator")))
        except AdaptationError as error:
            raise HttpError(409, str(error))

    def _handle_checkpoint(self, query: dict, body: Any) -> dict:
        path = None
        if isinstance(body, dict) and body.get("path"):
            path = body["path"]
        written = self.write_checkpoint(path)
        return {
            "path": str(written),
            "tick": self.runtime.tick,
            "source_position": self.source.position,
        }
