"""Run one workload: set up, lap until the time is spent, check, measure.

End-to-end metrics always come from laps run without tracing.  A traced
run (``--trace 1``) alternates untraced and traced laps, so the
per-layer numbers, the tracing overhead and the proof that the proxies
change no allocation all come from one process.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import time
from pathlib import Path

import numpy as np

from repro.obs import MetricsRegistry, render_prometheus, using_registry
from repro.service import ServiceRuntime, restore_from_checkpoint, save_checkpoint

from .stats import median, summarize
from .tracing import LAYERS
from .workloads import (
    CONTEXT,
    HORIZON,
    SPECS,
    TAIL_TICKS,
    Lap,
    Scenario,
    TimingSource,
)

__all__ = ["ROOT", "declared_metrics", "run_workload", "environment"]

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Laps (of each kind) a run makes at least, however short its time budget.
MIN_LAPS = 3
#: Checkpoint writes / restores timed on the end state of a traced run.
CHECKPOINT_WRITES = 5
RESTORES = 3
#: Server routes whose handlers get a per-layer metric.
HANDLER_ROUTES = ("forecast", "health", "metrics", "decisions", "series")


def declared_metrics() -> dict:
    """``BENCHMARK.json``: the one place names, units and bounds are written."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    """Where and with what the numbers were taken."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {
            key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "platform": platform.platform(),
    }


# -- laps -------------------------------------------------------------------
def _set_up_and_lap(scenario: Scenario, seconds: float, trace: bool) -> tuple[list, list[Lap]]:
    """Alternate cold set-ups with a share of the laps each.

    The shared box has slow phases of 7-14 s (interpreter-bound ticks run
    1.6x slower in them).  The per-tick minimum over laps only removes a
    slow phase if some lap ran outside it, so the laps are spread over
    the whole run instead of following the set-ups in one block.  A
    traced run alternates untraced (even) and traced (odd) laps; the
    minimum needs at least ``MIN_LAPS`` of each kind.
    """
    repeats = 1 if scenario.quick else SETUP_REPEATS
    minimum = (1 if scenario.quick else MIN_LAPS) * (2 if trace else 1)
    setups, laps = [], []
    for done in range(1, repeats + 1):
        setups.append(scenario.set_up())
        deadline = time.perf_counter() + seconds / repeats
        while len(laps) * repeats < minimum * done or time.perf_counter() < deadline:
            gc.collect()  # every lap starts from the same collector state
            lap = scenario.lap(traced=trace and len(laps) % 2 == 1)
            if laps:
                lap.live = {}  # only the first lap's objects are probed afterwards
            laps.append(lap)
    return setups, laps


def _digest(lap: Lap) -> str:
    return hashlib.sha256(lap.log.nodes.astype("<i8").tobytes()).hexdigest()


def _tick_cost(laps: list[Lap]) -> np.ndarray:
    """Cost of each tick of the lap: its smallest latency over ``laps``.

    Tick *i* does the same work in every lap, so what differs between
    laps is what the machine added — a preemption, a slow phase of a
    shared host, a control-plane request served in between — and that
    only ever adds time.  On this box the per-tick median over laps still
    moved 9-16 % between runs, the minimum 3 %.  Ticks that are expensive
    by construction (a plan, a checkpoint, a refit, a collector run
    triggered by the lap's own allocations) are expensive in every lap
    and keep their cost.
    """
    return np.min(np.stack([lap.log.latency for lap in laps]), axis=0)


# -- end state: checkpoint, restore, continuation ----------------------------
def _serve_tail(scenario: Scenario, runtime, manager, tail: np.ndarray) -> np.ndarray:
    """Allocations for ``tail`` served by an existing loop."""
    with using_registry(MetricsRegistry()):
        if scenario.spec.kind == "daemon":
            source = TimingSource(tail)
            service = ServiceRuntime(
                runtime, source, plan_on_alert=scenario.spec.full
            )
            source.service = service
            asyncio.run(service.run())
            return source.log.nodes
        nodes = np.zeros(len(tail), dtype=np.int64)
        for index, value in enumerate(tail):
            step = runtime.step(value)
            manager.on_tick(step.tick, step.observed, step.planned)
            nodes[index] = step.target_nodes
        return nodes


def _end_state(scenario: Scenario, lap: Lap, repeats: tuple[int, int]) -> dict:
    """Checkpoint the end of ``lap``, restore it, and serve on from both.

    Returns the write/restore timings, the checkpoint's size and whether
    the restored loop allocated exactly like the uninterrupted one over
    the next ``TAIL_TICKS`` ticks.
    """
    spec = scenario.spec
    runtime = lap.live["runtime"]
    manager = lap.live.get("manager")
    directory = scenario.workdir / "end-state"
    start = runtime.start_tick + CONTEXT
    writes, restores = [], []
    with using_registry(MetricsRegistry()):
        for _ in range(repeats[0]):
            began = time.perf_counter()
            if spec.kind == "daemon":
                lap.live["service"].write_checkpoint(directory)
            else:
                save_checkpoint(
                    directory, runtime=runtime, adaptation=manager,
                    source_position=spec.ticks,
                )
            writes.append(time.perf_counter() - began)
        for _ in range(repeats[1]):
            # Fresh objects: an unfitted forecaster whose weights come from
            # the checkpoint, a new monitor, a new state machine.
            planner = scenario.new_planner(scenario.new_forecaster())
            monitor = scenario.new_monitor() if runtime.monitor is not None else None
            restored = scenario.new_runtime(planner, start, monitor=monitor)
            restored_manager = (
                scenario.new_adaptation(restored, start) if manager is not None else None
            )
            began = time.perf_counter()
            position = restore_from_checkpoint(
                directory, runtime=restored, adaptation=restored_manager
            )
            restores.append(time.perf_counter() - began)
    tail = scenario.stream(extra=TAIL_TICKS)[1][spec.ticks :]
    uninterrupted = _serve_tail(scenario, runtime, manager, tail)
    resumed = _serve_tail(scenario, restored, restored_manager, tail)
    return {
        "write_s": writes,
        "restore_s": restores,
        "bytes": sum(path.stat().st_size for path in directory.iterdir()),
        "identical": bool(
            position == spec.ticks and np.array_equal(uninterrupted, resumed)
        ),
        "tail_ticks": 2 * len(tail),
    }


# -- checks -------------------------------------------------------------------
def _check(scenario: Scenario, laps: list[Lap], end_state: "dict | None") -> list[str]:
    """Names of the output checks that failed."""
    spec = scenario.spec
    failed = []

    def expect(condition: bool, name: str) -> None:
        if not condition:
            failed.append(name)

    expect(all(lap.log.recorded == spec.ticks for lap in laps), "every tick served")
    expect(
        all(
            np.array_equal(lap.log.nodes, laps[0].log.nodes)
            and np.array_equal(lap.log.planned, laps[0].log.planned)
            for lap in laps
        ),
        "every lap allocates identically (traced or not)",
    )
    expect(
        all(lap.counts["decisions_degraded"] == 0 for lap in laps),
        "no degraded decision",
    )
    expect(
        all(lap.counts["nonfinite_forecasts"] == 0 for lap in laps),
        "finite forecasts",
    )
    if spec.kind == "step":
        expect(
            all(lap.log.planned.all() and lap.counts["decisions_fallback"] == 0 for lap in laps),
            "a plan on every tick after warm-up",
        )
    if spec.kind == "daemon" and not spec.full:
        warm, values, start = scenario.stream()
        with using_registry(MetricsRegistry()):
            reference = scenario.new_runtime(scenario.planner, start).run(
                np.concatenate([warm, values])
            )
        expect(
            np.array_equal(reference[len(warm) :], laps[0].log.nodes),
            "daemon allocates like AutoscalingRuntime.run",
        )
    if spec.full:
        expect(
            all(lap.counts["http_failed"] == 0 and lap.counts["http_requests"] > 0 for lap in laps),
            "every HTTP body parses and /forecast shows the committed plan",
        )
        expect(all(lap.counts["probe_alive"] == 0 for lap in laps), "probe thread ended")
    if spec.kind == "adapt":
        expect(all(lap.counts["refits_failed"] == 0 for lap in laps), "no failed refit")
        if not scenario.quick:  # a tenth of the lap is too short for a refit
            expect(
                all(
                    lap.counts["refits"] >= 1
                    and lap.counts["promotions"] + lap.counts["rejections"] >= 1
                    for lap in laps
                ),
                "a refit whose candidate was promoted or rejected",
            )
    if end_state is not None:
        expect(end_state["identical"], "restore continues bit-identically")
    return failed


def _operations(laps: list[Lap], end_state: "dict | None", failed_checks: list[str]) -> tuple[int, int]:
    """``(attempted, failed)`` operations of the whole run."""
    attempted = failed = 0
    for lap in laps:
        counts = lap.counts
        attempted += len(lap.log.latency) + counts.get("http_requests", 0)
        attempted += counts.get("refits", 0) + counts.get("refits_failed", 0)
        attempted += counts.get("checkpoints", 0)
        failed += len(lap.log.latency) - lap.log.recorded
        failed += counts["decisions_degraded"] + counts.get("http_failed", 0)
        failed += counts.get("refits_failed", 0)
    if end_state is not None:
        attempted += len(end_state["write_s"]) + len(end_state["restore_s"])
        attempted += end_state["tail_ticks"]
        failed += not end_state["identical"]
    # A failed check that no counter above caught still fails the run.
    return attempted, max(failed, len(failed_checks))


# -- metrics ------------------------------------------------------------------
def _quality(lap: Lap) -> dict:
    nodes, required = lap.log.nodes, lap.required
    return {
        "under_prov_rate": float(np.mean(nodes < required)),
        "over_prov_ratio": float(nodes.sum() / required.sum()),
    }


def _pooled(laps: list[Lap], select) -> np.ndarray:
    parts = [select(lap) for lap in laps]
    return np.concatenate(parts) if parts else np.empty(0)


def _wall_rates(laps: list[Lap]) -> list[float]:
    return [len(lap.log.latency) / lap.wall for lap in laps]


def _end_to_end(setups, import_s, untraced, peak_rss_mb) -> tuple[dict, dict]:
    cost = _tick_cost(untraced)
    planned = untraced[0].log.planned
    values = {
        "setup_s": import_s + median([setup["total_s"] for setup in setups]),
        "ticks_per_s": len(cost) / cost.sum(),
        "decision_ms_p50": 1e3 * median(cost[planned]),
        "peak_rss_mb": peak_rss_mb,
    }
    every = summarize(_pooled(untraced, lambda lap: lap.log.latency[lap.log.planned]))
    diagnostics = {
        "laps": len(untraced),
        "import_s": import_s,
        "setup_s": [setup["total_s"] for setup in setups],
        "ticks_per_s_wall_by_lap": _wall_rates(untraced),
        # every planning tick of every lap, stalls included: median and the
        # highest percentile with ten samples beyond it, in milliseconds
        "decision_ms_all_laps": {
            **every,
            "p50": 1e3 * every["p50"],
            "tail": None if every["tail"] is None else 1e3 * every["tail"],
        },
    }
    return values, diagnostics


def _kernel_timings() -> dict:
    """Public ``nn`` kernels at the workloads' shapes (DeepAR step, TFT attention)."""
    from repro.forecast.features import NUM_CALENDAR_FEATURES
    from repro.nn import LSTM, InterpretableMultiHeadAttention, causal_mask

    rng = np.random.default_rng(0)
    samples, hidden, d_model = 100, 32, 32
    lstm = LSTM(1 + NUM_CALENDAR_FEATURES, hidden, rng, num_layers=2)
    inputs = rng.standard_normal((samples, 1 + NUM_CALENDAR_FEATURES))
    state = [(np.zeros((samples, hidden)), np.zeros((samples, hidden))) for _ in range(2)]
    attention = InterpretableMultiHeadAttention(d_model, 4, rng)
    sequence = rng.standard_normal((1, CONTEXT + HORIZON, d_model))
    query = sequence[:, -HORIZON:, :]
    mask = causal_mask(query_len=HORIZON, key_len=CONTEXT + HORIZON)

    def microseconds(call, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            began = time.perf_counter()
            call()
            times.append(time.perf_counter() - began)
        return 1e6 * median(times)

    return {
        "nn.lstm_step_us": microseconds(lambda: lstm.fast_step(inputs, state), 300),
        "nn.attention_us": microseconds(
            lambda: attention.fast_forward(query, sequence, sequence, mask=mask), 100
        ),
    }


def _per_layer(scenario, setups, laps, quality, end_state, operations) -> dict:
    spec = scenario.spec
    untraced = [lap for lap in laps if not lap.traced]
    traced = [lap for lap in laps if lap.traced]
    first = traced[0]  # counts repeat exactly, so one lap stands for all
    live = laps[0].live
    cost = _tick_cost(untraced)
    planned = first.log.planned

    def durations(name: str, scale: float, self_time: bool = False) -> float:
        select = (lambda lap: lap.spans.self_times(name)) if self_time else (
            lambda lap: lap.spans.durations(name)
        )
        return scale * median(_pooled(traced, select))

    def phase(select, scale: float) -> float:
        return scale * median(_pooled(untraced, select))

    values = {
        "traces.generate_s": median([setup["generate_s"] for setup in setups]),
        "forecast.fit_s": median([setup["fit_s"] for setup in setups]),
        "forecast.predict_calls": first.spans.count("forecast.predict"),
        "forecast.predict_ms_p50": durations("forecast.predict", 1e3),
        "forecast.predict_busy_s": median(
            [lap.spans.durations("forecast.predict").sum() for lap in traced]
        ),
        "forecast.sample_ms_p50": durations("forecast.sample", 1e3),
        "forecast.refit_calls": first.spans.count("forecast.fit"),
        "forecast.refit_s_p50": durations("forecast.fit", 1.0),
        "nn.model_params": scenario.forecaster.network.num_parameters(),
        "planner.solve_calls": first.spans.count("planner.solve"),
        "planner.solve_us_p50": durations("planner.solve", 1e6),
        "planner.ramp_clipped_steps": first.counts["ramp_clipped_steps"],
        "runtime.step_calls": first.spans.count("runtime.step"),
        "runtime.plan_ms_p50": phase(lambda lap: lap.log.plan_s[planned], 1e3),
        "runtime.actuate_us_p50": phase(lambda lap: lap.log.actuate_s, 1e6),
        "runtime.observe_us_p50": phase(lambda lap: lap.log.observe_s, 1e6),
        "runtime.self_us_p50": durations("runtime.step", 1e6, self_time=True),
        "runtime.decision_ms_p95": 1e3 * float(np.percentile(cost[planned], 95)),
        "runtime.decisions.predictive": first.counts["decisions_predictive"],
        "runtime.decisions.fallback": first.counts["decisions_fallback"],
        "runtime.decisions.degraded": first.counts["decisions_degraded"],
        "runtime.decisions_retained": first.counts["decisions_retained"],
        "runtime.state_bytes": len(json.dumps(live["runtime"].state_dict())),
        "obs.monitor_observe_us_p50": durations("obs.monitor_observe", 1e6),
        "obs.monitor_windows": first.counts.get("monitor_windows", 0),
        "obs.alerts_fired": first.counts.get("alerts_fired", 0),
        "obs.sink_records": first.counts.get("sink_records", 0),
        "obs.sink_emit_us_p50": durations("obs.sink_emit", 1e6),
        "obs.sink_bytes_per_tick": first.counts.get("sink_bytes", 0) / spec.ticks,
        "obs.registry_series": first.counts["registry_series"],
        "obs.trace_spans_per_tick": (
            first.counts.get("trace_spans", 0) / max(first.counts.get("trace_records", 0), 1)
        ),
        "service.tick_overhead_us_p50": durations("service.tick", 1e6, self_time=True),
        "service.alert_replans": first.counts.get("alert_replans", 0),
        "service.checkpoints": first.counts.get("checkpoints", 0),
        "service.checkpoint_bytes": end_state["bytes"] if end_state else 0,
        "service.checkpoint_write_ms_p50": durations("service.checkpoint_write", 1e3),
        "service.http_requests": first.counts.get("http_requests", 0),
        "service.http_failed": sum(lap.counts.get("http_failed", 0) for lap in laps),
        "service.http_late_ms_p50": 1e3 * median(
            [record.late for lap in untraced for record in lap.http]
        ),
        "adaptation.refits": first.counts.get("refits", 0),
        "adaptation.refit_s_p50": durations("adaptation.refit", 1.0),
        "adaptation.promotions": first.counts.get("promotions", 0),
        "adaptation.rollbacks": first.counts.get("rollbacks", 0),
        "adaptation.rejections": first.counts.get("rejections", 0),
        "adaptation.state_blob_bytes": (
            len(json.dumps(live["manager"].state_dict())) if "manager" in live else 0
        ),
        "trace.lap_wall_s": median([lap.wall for lap in traced]),
        "trace.unattributed_share": median(
            [lap.spans.unattributed_seconds() / lap.wall for lap in traced]
        ),
        "trace.overhead_share": _tick_cost(traced).sum() / cost.sum() - 1.0,
        # End-to-end figures that exist on some workloads only, or that the
        # seed moves more than a change would (see README).
        "ticks_per_s_wall": median(_wall_rates(untraced)),
        "idle_tick_us_p50": 1e6 * median(cost[~planned]),
        "http_ms_p50": 1e3 * median(
            [record.latency for lap in untraced for record in lap.http]
        ),
        "checkpoint_ms": 1e3 * median(end_state["write_s"]) if end_state else 0.0,
        "restore_ms": 1e3 * median(end_state["restore_s"]) if end_state else 0.0,
        "refit_stall_ms_p50": (
            1e3 * median(cost[first.stalled]) if first.stalled is not None else 0.0
        ),
        "under_prov_rate": quality["under_prov_rate"],
        "over_prov_ratio": quality["over_prov_ratio"],
        "failed_ops_share": operations[1] / operations[0],
    }
    for route in HANDLER_ROUTES:
        values[f"service.http_handler_us_p50.{route}"] = durations(f"service.http.{route}", 1e6)
    by_lap = [(lap.spans.layer_self_seconds(), lap.wall) for lap in traced]
    for layer in LAYERS.values():
        values[f"share.{layer}"] = median([busy[layer] / wall for busy, wall in by_lap])
    # adaptation.on_tick by what the state machine was doing on that tick
    for name, flag in (("shadow", True), ("idle", False)):
        values[f"adaptation.{name}_tick_us_p50"] = 1e6 * median(
            _pooled(
                [lap for lap in traced if lap.shadowing is not None],
                lambda lap: lap.spans.durations("adaptation.on_tick")[
                    (lap.shadowing == flag) & ~lap.stalled
                ],
            )
        )
    registry = live["registry"]
    began = time.perf_counter()
    snapshots = [registry.snapshot() for _ in range(5)]
    values["obs.snapshot_ms"] = 1e3 * (time.perf_counter() - began) / 5
    began = time.perf_counter()
    for snapshot in snapshots:
        render_prometheus(snapshot)
    values["obs.prometheus_render_ms"] = 1e3 * (time.perf_counter() - began) / 5
    values.update(_kernel_timings())
    return values


# -- one run ------------------------------------------------------------------
def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool, import_s: float
) -> dict:
    """Run one workload and return its full report."""
    declared = declared_metrics()
    spec = SPECS[name]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        scenario = Scenario(spec, seed, workdir, quick=quick)
        setups, laps = _set_up_and_lap(scenario, seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        end_state = None
        if spec.full or spec.kind == "adapt":
            repeats = (CHECKPOINT_WRITES, RESTORES) if trace else (1, 1)
            end_state = _end_state(scenario, laps[0], repeats)
        failed_checks = _check(scenario, laps, end_state)
        operations = _operations(laps, end_state, failed_checks)
        quality = _quality(laps[0])
        if trace:
            values = _per_layer(scenario, setups, laps, quality, end_state, operations)
            diagnostics = {"laps": len(laps), "digest_traced": _digest(laps[1])}
            laps[1].spans.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")
            kind = "per_layer"
        else:
            values, diagnostics = _end_to_end(setups, import_s, laps, peak_rss_mb)
            kind = "end_to_end"
        units = {metric["name"]: metric["unit"] for metric in declared[kind]}
        if set(values) != set(units):
            raise RuntimeError(
                f"metrics computed and declared in BENCHMARK.json differ: "
                f"{sorted(set(values) ^ set(units))}"
            )
        return {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "quick": quick,
            "correct": not failed_checks,
            "failed_checks": failed_checks,
            "attempted": operations[0],
            "failed": operations[1],
            "metrics": {
                key: {"value": float(values[key]), "unit": units[key]} for key in units
            },
            "digest": _digest(laps[0]),
            "quality": quality,
            "diagnostics": diagnostics,
            "hyper_parameters": scenario.spec.hyper_parameters(),
            "environment": environment(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
