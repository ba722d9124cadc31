"""The five workloads: what each sets up and what one lap of it runs.

A *lap* is a fixed number of ticks over a fixed stretch of the seeded
trace, served by freshly built loop objects over the model fitted in
set-up.  A run repeats the lap until its time budget is spent.  Every lap
starts from the same state, so the work per lap — and with it the
allocations, the provisioning quality and every size-dependent cost such
as a checkpoint of the end state — is a function of the seed alone, not
of how fast the machine happens to be; and because tick *i* does the
same work in every lap, its cost can be taken as its smallest latency
over the laps, which drops what a shared box adds at random ticks.

Nothing here attaches a wall-clock-dependent SLO (``plan_latency_*``):
allocations must stay a pure function of the seed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import (
    AutoscalingRuntime,
    DeepARForecaster,
    FixedQuantilePolicy,
    MLPForecaster,
    RobustPredictiveAutoscaler,
    TFTForecaster,
    TrainingConfig,
    UncertaintyAwarePolicy,
    alibaba_like_trace,
)
from repro.adaptation import SHADOWING, AdaptationManager
from repro.obs import (
    AlertEngine,
    JsonlSink,
    MetricsRegistry,
    ModelHealthMonitor,
    SLOTracker,
    TraceCollector,
    default_rules,
    get_registry,
    using_registry,
)
from repro.service import ServiceRuntime

from .probe import HttpProbe, ProbeRecord, count_bad_responses
from .tracing import SpanTable, Tracer, layer_entry_points, patched, timed

__all__ = ["SPECS", "Spec", "Scenario", "Lap", "TickLog", "TimingSource"]

FIT_TICKS = 1296  # nine days of 10-minute intervals
CONTEXT = 72
HORIZON = 72
THETA = 60.0
NOMINAL_LEVEL = 0.9
TFT_LEVELS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
DEEPAR_SAMPLES = 100
UNCERTAINTY_THRESHOLD = 100.0  # rho of Algorithm 1
MAX_SCALE_IN = 4
WINDOW_STRIDE = 2
MONITOR_WINDOW = 24
SLOS = ("qos_violation_rate < 0.2 over 48", "coverage@0.9 >= 0.85 over 48")
CHECKPOINT_EVERY = 2016
TRACE_RING = 64
#: Ticks served after a restore to compare against the uninterrupted loop.
TAIL_TICKS = 144

# adapt-drift: one level shift early in the lap; the first alert after it
# starts the only refit, because the cooldown outlasts the lap.  One
# refit per lap for every seed keeps ticks_per_s comparable across seeds.
DRIFT_AT = 150
DRIFT_SCALE = 1.3
DRIFT_OFFSET = 400.0
PROMOTION_POLICY = "wql<=0.98 cal<=0.5 soak=1 guard=1"
SHADOW_WINDOW = 120
COOLDOWN = 100_000
REFIT_EPOCHS = 2
REFIT_HISTORY = 576


@dataclass(frozen=True)
class Spec:
    """One workload's frozen configuration."""

    name: str
    kind: str  # "step" (runtime.step loop), "daemon" or "adapt"
    model: str  # "tft", "deepar" or "mlp"
    epochs: int
    replan_every: int
    ticks: int  # timed ticks per lap
    full: bool = False  # daemon with monitor, SLOs, sinks, checkpoints, HTTP

    def scaled(self, divisor: int) -> "Spec":
        """The ``--quick`` variant: a fraction of the ticks."""
        return replace(self, ticks=max(self.ticks // divisor, HORIZON))

    def hyper_parameters(self) -> dict:
        return {
            "fit_ticks": FIT_TICKS,
            "context": CONTEXT,
            "horizon": HORIZON,
            "theta": THETA,
            "window_stride": WINDOW_STRIDE,
            "model": self.model,
            "deepar_samples": DEEPAR_SAMPLES if self.model == "deepar" else None,
            "policy": (
                f"adaptive 0.7/{NOMINAL_LEVEL} rho={UNCERTAINTY_THRESHOLD} "
                f"max_scale_in={MAX_SCALE_IN}"
                if self.model == "deepar"
                else f"fixed {NOMINAL_LEVEL}"
            ),
            "epochs": self.epochs,
            "replan_every": self.replan_every,
            "ticks_per_lap": self.ticks,
            "tft_levels": list(TFT_LEVELS) if self.model == "tft" else None,
            "monitor_window": MONITOR_WINDOW if self.full or self.kind == "adapt" else None,
            "slos": list(SLOS) if self.full else None,
            "checkpoint_every": CHECKPOINT_EVERY if self.full else None,
            "drift": (
                {
                    "at": DRIFT_AT,
                    "scale": DRIFT_SCALE,
                    "offset": DRIFT_OFFSET,
                    "policy": PROMOTION_POLICY,
                    "shadow_window": SHADOW_WINDOW,
                    "cooldown": COOLDOWN,
                    "refit_epochs": REFIT_EPOCHS,
                    "refit_history": REFIT_HISTORY,
                }
                if self.kind == "adapt"
                else None
            ),
        }


#: Why each workload exists is written once, in ``BENCHMARK.json``.
SPECS = {
    spec.name: spec
    for spec in (
        Spec("cycle-tft", kind="step", model="tft", epochs=2, replan_every=1, ticks=240),
        Spec("cycle-deepar", kind="step", model="deepar", epochs=2, replan_every=1, ticks=48),
        Spec("serve-bare", kind="daemon", model="mlp", epochs=3, replan_every=12, ticks=6000),
        Spec(
            "serve-full", kind="daemon", model="mlp", epochs=3, replan_every=12,
            ticks=CHECKPOINT_EVERY, full=True,
        ),
        Spec("adapt-drift", kind="adapt", model="tft", epochs=2, replan_every=12, ticks=600),
    )
}


class TickLog:
    """Per-tick measurements of one lap."""

    def __init__(self, ticks: int) -> None:
        self.latency = np.zeros(ticks)
        self.nodes = np.zeros(ticks, dtype=np.int64)
        self.planned = np.zeros(ticks, dtype=bool)
        self.plan_s = np.zeros(ticks)  # StepResult.phase_seconds, per phase
        self.actuate_s = np.zeros(ticks)
        self.observe_s = np.zeros(ticks)
        self.recorded = 0

    def record(self, index: int, latency: float, step) -> None:
        self.latency[index] = latency
        self.nodes[index] = step.target_nodes
        self.planned[index] = step.planned
        phases = step.phase_seconds
        self.plan_s[index] = phases["plan"]
        self.actuate_s[index] = phases["actuate"]
        self.observe_s[index] = phases["observe"]
        self.recorded += 1


class TimingSource:
    """In-memory ``TelemetrySource`` that times the daemon from outside.

    The daemon asks for the next tick only after it has finished with
    the previous one (a closed loop with one client), so the time between
    handing a tick over and being asked for the next is that tick's
    latency, control-plane requests served in between included.
    """

    def __init__(self, values: np.ndarray, tracer: "Tracer | None" = None) -> None:
        self.values = values
        self.tracer = tracer
        self.log = TickLog(len(values))
        self.service: "ServiceRuntime | None" = None
        self.on_first = None  # called before the first tick is handed over
        self.on_last = None  # called after the last tick came back
        self.started = 0.0
        self.finished = 0.0
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def seek(self, position: int) -> None:
        self._position = int(position)

    async def ticks(self):
        values, log, tracer, service = self.values, self.log, self.tracer, self.service
        if self.on_first is not None:
            self.on_first()
        if tracer is not None:
            tracer.reset()
        self.started = time.perf_counter()
        while self._position < len(values):
            index = self._position
            self._position += 1
            if tracer is not None:
                tracer.tick = index
                span = tracer.begin("service.tick")
            handed = time.perf_counter()
            yield float(values[index])
            returned = time.perf_counter()
            if tracer is not None:
                tracer.end(span)
            log.record(index, returned - handed, service.last_step)
        self.finished = time.perf_counter()
        if self.on_last is not None:
            self.on_last()


@dataclass
class Lap:
    """What one lap produced."""

    traced: bool
    wall: float
    log: TickLog
    required: np.ndarray  # nodes the observed workload needed, per tick
    counts: dict  # integer facts about the lap, for checks and per-layer counts
    spans: "SpanTable | None" = None
    stalled: "np.ndarray | None" = None  # adapt: ticks whose on_tick ran a refit
    shadowing: "np.ndarray | None" = None  # adapt: ticks served while shadowing
    http: list[ProbeRecord] = field(default_factory=list)
    live: dict = field(default_factory=dict)  # loop objects, for end-state probes


def _required(values: np.ndarray) -> np.ndarray:
    from repro import required_nodes

    return required_nodes(values, THETA)


class Scenario:
    """One workload set up for one seed."""

    def __init__(self, spec: Spec, seed: int, workdir: Path, quick: bool = False) -> None:
        self.spec = spec.scaled(10) if quick else spec
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.trace: "np.ndarray | None" = None
        self.forecaster = None
        self.planner = None

    # -- set-up -----------------------------------------------------------
    def new_forecaster(self):
        """An unfitted forecaster with this workload's architecture."""
        spec = self.spec
        config = TrainingConfig(
            epochs=1 if self.quick else spec.epochs,
            window_stride=8 if self.quick else WINDOW_STRIDE,
            seed=self.seed,
        )
        if spec.model == "tft":
            return TFTForecaster(
                CONTEXT, HORIZON, quantile_levels=TFT_LEVELS, config=config
            )
        if spec.model == "deepar":
            return DeepARForecaster(
                CONTEXT, HORIZON, num_samples=DEEPAR_SAMPLES, config=config
            )
        return MLPForecaster(CONTEXT, HORIZON, config=config)

    def new_planner(self, forecaster):
        if self.spec.model == "deepar":
            return RobustPredictiveAutoscaler(
                forecaster,
                THETA,
                UncertaintyAwarePolicy(
                    0.7, NOMINAL_LEVEL, uncertainty_threshold=UNCERTAINTY_THRESHOLD
                ),
                max_scale_in=MAX_SCALE_IN,
            )
        return RobustPredictiveAutoscaler(
            forecaster, THETA, FixedQuantilePolicy(NOMINAL_LEVEL)
        )

    def set_up(self) -> dict:
        """Generate the trace, fit the model cold, build the planner."""
        spec = self.spec
        started = time.perf_counter()
        length = FIT_TICKS + spec.ticks + TAIL_TICKS
        self.trace = alibaba_like_trace(num_steps=length, seed=self.seed).values
        generated = time.perf_counter()
        self.forecaster = self.new_forecaster().fit(self.trace[:FIT_TICKS])
        fitted = time.perf_counter()
        self.planner = self.new_planner(self.forecaster)
        return {
            "generate_s": generated - started,
            "fit_s": fitted - generated,
            "total_s": time.perf_counter() - started,
        }

    def stream(self, extra: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
        """``(warm-up ticks, lap ticks (+ extra), index of the first lap tick)``."""
        start = FIT_TICKS
        values = self.trace[start : start + self.spec.ticks + extra].copy()
        if self.spec.kind == "adapt":
            drift_at = min(DRIFT_AT, self.spec.ticks // 4)
            values[drift_at:] = values[drift_at:] * DRIFT_SCALE + DRIFT_OFFSET
        return self.trace[start - CONTEXT : start], values, start

    def new_monitor(self) -> ModelHealthMonitor:
        engine = AlertEngine(default_rules(nominal_level=NOMINAL_LEVEL))
        slos = SLOTracker(SLOS, engine=engine) if self.spec.full else None
        return ModelHealthMonitor(window=MONITOR_WINDOW, alerts=engine, slos=slos)

    def new_runtime(self, planner, start: int, monitor=None) -> AutoscalingRuntime:
        return AutoscalingRuntime(
            planner,
            CONTEXT,
            HORIZON,
            THETA,
            replan_every=self.spec.replan_every,
            start_tick=start - CONTEXT,
            monitor=monitor,
            record_provenance=self.spec.full,
        )

    def new_adaptation(self, runtime: AutoscalingRuntime, start: int) -> AdaptationManager:
        manager = AdaptationManager(
            runtime,
            policy=PROMOTION_POLICY,
            shadow_window=SHADOW_WINDOW,
            cooldown=COOLDOWN,
            refit_epochs=REFIT_EPOCHS,
            history_size=REFIT_HISTORY,
        )
        # Seed the refit history with the ticks before the warm-up, as
        # ``serve --adapt`` does with the training tail.
        for value in self.trace[start - CONTEXT - REFIT_HISTORY : start - CONTEXT]:
            manager.history.append(float(value))
        return manager

    # -- laps ---------------------------------------------------------------
    def lap(self, traced: bool) -> Lap:
        """Serve the lap's ticks from fresh loop objects on a fresh registry."""
        if hasattr(self.forecaster, "reseed_sampler"):
            # DeepAR's sampler advances with every draw; laps must not
            # depend on how many came before.
            self.forecaster.reseed_sampler(self.seed + 777)
        run = {"step": self._lap_step, "daemon": self._lap_daemon, "adapt": self._lap_adapt}[
            self.spec.kind
        ]
        with using_registry(MetricsRegistry()) as registry:
            if not traced:
                lap = run(None)
            else:
                tracer = Tracer()
                with patched(tracer, layer_entry_points()):
                    lap = run(tracer)
        lap.counts["registry_series"] = sum(
            len(group) for group in registry.snapshot().values()
        )
        lap.live["registry"] = registry
        return lap

    def _finish(self, lap: Lap, tracer, started: float, finished: float, runtime) -> Lap:
        if tracer is not None:
            lap.spans = SpanTable(tracer.spans, started, finished)
        first = runtime.start_tick + CONTEXT  # decisions before it are warm-up
        decisions = [d for d in runtime.decisions if d.time_index >= first]
        sources = [decision.source for decision in decisions]
        lap.counts.update(
            decisions_predictive=sources.count("predictive"),
            decisions_fallback=sources.count("reactive-fallback"),
            decisions_degraded=sources.count("degraded"),
            decisions_retained=len(runtime.decisions),
            nonfinite_forecasts=sum(
                not np.all(np.isfinite(decision.plan.metadata["forecast_values"]))
                for decision in decisions
                if decision.source == "predictive"
            ),
            ramp_clipped_steps=sum(
                decision.plan.metadata.get("ramp_clipped_steps", 0)
                for decision in decisions
            ),
        )
        lap.live["runtime"] = runtime
        return lap

    def _lap_step(self, tracer) -> Lap:
        warm, values, start = self.stream()
        runtime = self.new_runtime(self.planner, start)
        for value in warm:
            runtime.step(value)
        log = TickLog(len(values))
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        for index, value in enumerate(values):
            if tracer is not None:
                tracer.tick = index
            handed = time.perf_counter()
            step = runtime.step(value)
            log.record(index, time.perf_counter() - handed, step)
        finished = time.perf_counter()
        lap = Lap(tracer is not None, finished - started, log, _required(values), {})
        return self._finish(lap, tracer, started, finished, runtime)

    def _lap_adapt(self, tracer) -> Lap:
        warm, values, start = self.stream()
        planner = self.new_planner(self.forecaster)  # promotion swaps its model
        runtime = self.new_runtime(planner, start, monitor=self.new_monitor())
        manager = self.new_adaptation(runtime, start)
        for value in warm:
            step = runtime.step(value)
            manager.on_tick(step.tick, step.observed, step.planned)
        log = TickLog(len(values))
        stalled = np.zeros(len(values), dtype=bool)
        shadowing = np.zeros(len(values), dtype=bool)
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        for index, value in enumerate(values):
            if tracer is not None:
                tracer.tick = index
            refits = manager.refits
            shadowing[index] = manager.state == SHADOWING
            handed = time.perf_counter()
            step = runtime.step(value)
            manager.on_tick(step.tick, step.observed, step.planned)
            log.record(index, time.perf_counter() - handed, step)
            stalled[index] = manager.refits != refits
        finished = time.perf_counter()
        lap = Lap(
            tracer is not None, finished - started, log, _required(values),
            {**_adaptation_counts(manager), **_monitor_counts(runtime.monitor)},
            stalled=stalled, shadowing=shadowing,
        )
        lap.live["manager"] = manager
        return self._finish(lap, tracer, started, finished, runtime)

    def _lap_daemon(self, tracer) -> Lap:
        full = self.spec.full
        warm, values, start = self.stream()
        runtime = self.new_runtime(
            self.planner, start, monitor=self.new_monitor() if full else None
        )
        for value in warm:
            runtime.step(value)
        source = TimingSource(values, tracer)
        registry = get_registry()
        sink = probe = None
        if not full:
            service = ServiceRuntime(runtime, source)
        else:
            sink = JsonlSink(self.workdir / "telemetry.jsonl")
            registry.add_sink(sink)
            service = ServiceRuntime(
                runtime,
                source,
                checkpoint_dir=self.workdir / "checkpoint",
                checkpoint_every=CHECKPOINT_EVERY,
                decision_log=self.workdir / "decisions.jsonl",
                plan_on_alert=True,
                tracer=TraceCollector(TRACE_RING),
                # Keeps the control plane up after the last tick until the
                # probe has read its last response and stops the daemon.
                linger=60.0,
            )
            probe = HttpProbe(on_done=service.request_stop)
            # The port exists once the daemon asks for its first tick.
            source.on_first = lambda: probe.start_on(service.port)
            source.on_last = probe.finish
        source.service = service
        if tracer is not None:
            routes = service.control.routes
            for (method, path), handler in list(routes.items()):
                routes[(method, path)] = timed(
                    tracer, "service.http." + path.strip("/"), handler
                )
        try:
            asyncio.run(service.run())
        finally:
            if sink is not None:
                registry.remove_sink(sink)
                sink.close()
            if probe is not None and probe.ident is not None:
                probe.join(timeout=60.0)
        lap = Lap(
            tracer is not None, source.finished - source.started,
            source.log, _required(values), _monitor_counts(runtime.monitor),
        )
        if probe is not None:
            lap.http = probe.records
            lap.counts.update(
                probe_alive=int(probe.is_alive()),
                http_requests=len(probe.records),
                http_failed=count_bad_responses(probe.records, runtime.decisions),
            )
        collector = service.tracer
        lap.counts.update(
            alert_replans=service.alert_replans,
            checkpoints=service.checkpoints_written,
            sink_records=sink.records_written if sink is not None else 0,
            sink_bytes=_size(self.workdir / "telemetry.jsonl")
            + _size(self.workdir / "decisions.jsonl"),
            trace_spans=(
                sum(len(trace["spans"]) for trace in collector.finished)
                if collector is not None
                else 0
            ),
            trace_records=len(collector.finished) if collector is not None else 0,
        )
        lap.live["service"] = service
        return self._finish(lap, tracer, source.started, source.finished, runtime)


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _monitor_counts(monitor) -> dict:
    if monitor is None:
        return {"monitor_windows": 0, "alerts_fired": 0}
    return {
        "monitor_windows": len(monitor.windows),
        "alerts_fired": len(monitor.alerts.alerts),
    }


def _adaptation_counts(manager: AdaptationManager) -> dict:
    return {
        "refits": manager.refits,
        "promotions": manager.promotions,
        "rollbacks": manager.rollbacks,
        "rejections": manager.rejections,
        "refits_failed": sum(
            event["action"] == "refit_failed" for event in manager.events
        ),
    }
