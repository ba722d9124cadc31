"""Command-line interface: train, plan, and evaluate in one shot.

Examples
--------
Evaluate robust scaling at the 0.9 quantile on an Alibaba-like trace::

    repro-autoscale evaluate --trace alibaba --quantile 0.9

Compare every strategy the paper evaluates (small budget)::

    repro-autoscale compare --trace google --days 10

Show a quantile forecast::

    repro-autoscale forecast --trace alibaba --model tft

Capture telemetry from any run and summarise it afterwards::

    repro-autoscale evaluate --trace alibaba --days 5 --telemetry out.jsonl
    repro-autoscale report out.jsonl

Watch model health online (calibration windows, drift detection,
alerts, decision provenance) and stress it with an injected regime
shift::

    repro-autoscale evaluate --model naive --monitor \
        --inject-shift 90:1500 --telemetry out.jsonl
    repro-autoscale report out.jsonl   # includes the model-health section

Serve the paper's uncertainty-aware adaptive policy as a daemon::

    repro-autoscale serve --model deepar --adaptive --quantile-low 0.7 \
        --quantile 0.9 --checkpoint-dir ckpt --checkpoint-every 144

Every loop command (``evaluate``, ``simulate``, ``chaos``, ``serve``)
turns its flags into one :class:`~repro.loop.LoopSpec` and builds its
objects from it; a ``serve`` checkpoint embeds that spec.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import ReactiveAvgScaler, ReactiveMaxScaler, evaluate_strategy
from .loop import MODELS, AdaptationSpec, LoopSpec, MonitorSpec, Record
from .traces import STEPS_PER_DAY, alibaba_like_trace, google_like_trace

TRACES = {"alibaba": alibaba_like_trace, "google": google_like_trace}


def _load_trace(name: str, days: int, seed: int):
    trace = TRACES[name](num_steps=days * STEPS_PER_DAY, seed=seed)
    return trace.split(test_fraction=0.25)


def _parse_shift(spec: str):
    """Parse ``--inject-shift START:MAGNITUDE`` (START is test-relative)."""
    start, _, magnitude = spec.partition(":")
    try:
        return int(start), float(magnitude)
    except ValueError:
        raise SystemExit(
            f"cannot parse --inject-shift {spec!r}; expected START:MAGNITUDE, e.g. 90:1500")


#: Per-interval Bernoulli rates for the ``chaos`` command's default
#: schedule — a little of everything, at every layer.
DEFAULT_CHAOS_RATES = {
    "nan": 0.02, "spike": 0.01, "drop": 0.01, "duplicate": 0.01,
    "planner_error": 0.05, "planner_timeout": 0.02,
    "node_crash": 0.01, "provision_fail": 0.01, "warmup_stall": 0.01,
}

#: Flags named like the :class:`LoopSpec` field they set.
_SPEC_FLAGS = ("model", "context", "horizon", "epochs", "seed", "threshold", "quantile",
               "uncertainty_threshold", "replan_every", "faults")


def _spec(args: argparse.Namespace, **fixed) -> LoopSpec:
    """The loop the flags describe (a flag a subcommand lacks keeps the
    spec's default).  Any of ``--monitor``, ``--alert``, ``--slo`` or
    ``--adapt`` attaches the health monitor: rules and SLOs read its feed,
    and adaptation compares candidate and incumbent monitors."""
    given = vars(args)
    spec = {name: given[name] for name in _SPEC_FLAGS if name in given}
    if given.get("adaptive"):
        spec["quantile_low"] = args.quantile_low
    if any(given.get(flag) for flag in ("monitor", "alert", "slo", "adapt")):
        rules = tuple(args.alert or ()), tuple(args.slo or ())
        spec["monitoring"] = MonitorSpec(args.monitor_window, *rules)
    if given.get("adapt"):
        spec["adaptation"] = AdaptationSpec(args.shadow_window, args.promote_policy,
                                            args.refit_epochs, args.adapt_cooldown)
    return LoopSpec(**{**spec, **fixed})


def _checked(build):
    """``build()``, or exit with the message of the ValueError it raised."""
    try:
        return build()
    except ValueError as error:
        raise SystemExit(str(error))


def _build(spec: LoopSpec, train):
    """``spec``'s loop at the start of the test split, its forecaster then
    fitted on ``train``; a bad flag exits with its message before the fit."""
    forecaster = spec.forecaster()
    loop = _checked(lambda: spec.build(forecaster, start_tick=len(train.values)))
    forecaster.fit(train.values)
    return loop


def _print_model_health(monitor, provenance: list[dict]) -> None:
    from .obs import ModelHealthSummary, format_model_health

    alerts = monitor.alerts.alert_records() if monitor.alerts else []
    health = ModelHealthSummary(windows=monitor.window_records(), drifts=monitor.drift_records(),
                                alerts=alerts, provenance=provenance)
    print()
    print(format_model_health(health))


def _predictive_plans(runtime) -> int:
    return sum(d.source != "reactive-fallback" for d in runtime.decisions)


def cmd_forecast(args: argparse.Namespace) -> int:
    train, test = _load_trace(args.trace, args.days, args.seed)
    forecaster = _spec(args).forecaster().fit(train.values)
    context = test.values[: args.context]
    fc = forecaster.predict(context, start_index=len(train.values))
    actual = test.values[args.context : args.context + args.horizon]
    print(f"# {args.model} forecast on {args.trace} (horizon {args.horizon})")
    print(f"{'step':>4} {'q0.5':>10} {'q0.9':>10} {'actual':>10}")
    for t in range(args.horizon):
        print(f"{t:>4} {fc.at(0.5)[t]:>10.1f} {fc.at(0.9)[t]:>10.1f} {actual[t]:>10.1f}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Closed-loop evaluation of one robust scaling strategy.

    The spec's runtime is driven over the test split by
    :meth:`~repro.loop.LoopSpec.run` (reactive fallback until a full
    context exists, then committed predictive plans), and the resulting
    allocation series is replayed on the simulated cluster so QoS
    violations include warm-up effects.
    With ``--telemetry`` the whole run streams spans and counters to a
    JSONL file that ``repro-autoscale report`` can summarise.
    """
    from .core.plan import evaluate_plan

    spec = _spec(args)
    train, test = _load_trace(args.trace, args.days, args.seed)
    runtime, monitor, _ = _build(spec, train)
    if args.inject_shift:
        from .traces.anomalies import inject_level_shift

        test = inject_level_shift(test, *_parse_shift(args.inject_shift))
    # Fault times are test-relative, here and in the planner's schedule.
    committed, telemetry_faults, replay = spec.run(runtime, test.values)
    report = evaluate_plan(committed, test.values)
    faults = spec.fault_schedule()
    violations = sum(o.violated for o in replay.outcomes)
    print(f"strategy            : {committed.strategy}")
    print(f"under-provisioning  : {report.under_provisioning_rate:.4f}")
    print(f"over-provisioning   : {report.over_provisioning_rate:.4f}")
    print(f"total node-steps    : {report.total_nodes}")
    print(f"minimum node-steps  : {report.minimum_nodes}")
    print(f"planning decisions  : {_predictive_plans(runtime)}")
    print(f"fallback intervals  : {min(args.context, len(test.values))}")
    print(f"QoS violations      : {violations} "
          f"({replay.violation_rate:.1%}, {replay.warmup_limited_violations} warm-up limited)")
    print(f"node-hours consumed : {replay.total_node_seconds / 3600:.0f}")
    if faults:
        injected = ", ".join(f"{kind}={count}" for kind, count in sorted(telemetry_faults.items()))
        print(f"faults injected     : {len(faults)} scheduled (telemetry: {injected or 'none'})")
        print(f"invalid observations: {runtime.invalid_observations} (imputed)")
        print(f"planner errors      : {runtime.planner_errors} "
              f"({runtime.degraded_intervals} degraded intervals)")
        print(f"actuation failures  : {replay.node_failures} crashes, "
              f"{replay.provision_failures} provision, {replay.warmup_failures} warm-up")
    if monitor is not None:
        _print_model_health(monitor, runtime.provenance)
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    """Rolling-origin forecast evaluation over the test split."""
    from .evaluation.backtest import backtest
    from .evaluation.report import format_table

    spec = _spec(args)
    train, test = _load_trace(args.trace, args.days, args.seed)
    forecaster = spec.forecaster().fit(train.values)
    levels = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    monitor = _checked(spec.monitor)
    result = backtest(
        forecaster, test.values, args.context, args.horizon, levels,
        series_start_index=len(train.values), monitor=monitor,
    )
    print(f"windows evaluated   : {result.num_windows}")
    print(f"steps scored        : {len(result.merged_actual)}")
    print(format_table([result.report(args.model, args.trace)]))
    if monitor is not None:
        _print_model_health(monitor, [])
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Summarise a telemetry file produced with ``--telemetry``."""
    from .obs import (
        format_model_health, format_summary, read_jsonl, summarize_model_health, summarize_records,
    )

    try:
        records = read_jsonl(args.path)
    except OSError as error:
        print(f"cannot read telemetry file: {error}", file=sys.stderr)
        return 2
    except UnicodeDecodeError:
        print(f"cannot read telemetry file: {args.path} is not a text file "
              f"(expected JSON lines written by --telemetry)", file=sys.stderr)
        return 2
    if not records:
        print(f"no telemetry records in {args.path} — the file is empty, contains no valid "
              f"JSON lines, or the run that wrote it was interrupted before any event was "
              f"flushed", file=sys.stderr)
        return 1
    try:
        summary = summarize_records(records)
    except ValueError as error:
        print(f"cannot summarise {args.path}: {error}", file=sys.stderr)
        return 1
    print(format_summary(summary))
    health = summarize_model_health(records)
    if health:
        print()
        print(format_model_health(health))
    if args.traces:
        from .obs import render_trace_timeline

        traces = [r for r in records if r.get("kind") == "trace"]
        if not traces:
            print()
            print("no trace records in this telemetry file "
                  "(traces are captured by `serve` and traced runs)")
        for record in traces[-args.traces :]:
            print()
            print(render_trace_timeline(record))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running daemon's control plane."""
    from .service import run_dashboard

    port = args.port
    if args.port_file:
        from pathlib import Path

        try:
            port = int(Path(args.port_file).read_text().strip())
        except (OSError, ValueError) as error:
            print(f"cannot read port file: {error}", file=sys.stderr)
            return 2
    if port is None:
        print("need --port or --port-file to find the daemon", file=sys.stderr)
        return 2
    return run_dashboard(args.host, port, interval=args.interval, once=args.once, width=args.width)


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _spec(args, model="tft")
    train, test = _load_trace(args.trace, args.days, args.seed)
    rows = []
    for scaler in (ReactiveMaxScaler(threshold=args.threshold),
                   ReactiveAvgScaler(threshold=args.threshold)):
        ev = evaluate_strategy(scaler, test.values, args.context, args.horizon, args.threshold)
        rows.append((scaler.name, ev.report, None))
    forecaster = spec.forecaster().fit(train.values)
    monitored = spec.monitoring is not None
    for tau in (0.5, 0.8, 0.9, 0.95):
        monitor = _checked(spec.monitor)
        ev = evaluate_strategy(
            replace(spec, quantile=tau).planner(forecaster),
            test.values, args.context, args.horizon, args.threshold,
            series_start_index=len(train.values), monitor=monitor,
        )
        rows.append((f"TFT-{tau}", ev.report, monitor))
    header = f"{'strategy':<16} {'under':>8} {'over':>8} {'nodes':>8}"
    print(header + (f" {'cal.err':>8} {'drift':>6}" if monitored else ""))
    for name, report, monitor in rows:
        row = (
            f"{name:<16} {report.under_provisioning_rate:>8.4f} "
            f"{report.over_provisioning_rate:>8.4f} {report.total_nodes:>8}"
        )
        if monitor is not None and monitor.windows:
            mean_cal = float(np.mean([w.calibration_error for w in monitor.windows]))
            row += f" {mean_cal:>8.3f} {len(monitor.drift_events):>6}"
        elif monitored:
            row += f" {'-':>8} {'-':>6}"
        print(row)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Closed-loop run: runtime + forecaster + simulated cluster, from one
    node at the first interval."""
    from .core.plan import required_nodes
    from .simulator import SharedStorage

    spec = _spec(args)
    train, test = _load_trace(args.trace, args.days, args.seed)
    runtime, _, _ = _build(spec, train)
    storage = SharedStorage(checkpoint_gb=args.checkpoint_gb, seed=args.seed)
    _, _, replay = spec.run(runtime, test.values, storage=storage, initial_nodes=1)
    interval = 600.0
    violations = sum(o.violated for o in replay.outcomes)
    steps = len(test.values)
    ideal = int(required_nodes(test.values, args.threshold).sum())
    print(f"intervals simulated : {steps}")
    print(f"planning decisions  : {_predictive_plans(runtime)}")
    print(f"violations          : {violations} ({violations / steps:.1%})")
    print(f"node-hours consumed : {replay.total_node_seconds / 3600:.0f}")
    print(f"oracle node-hours   : {ideal * interval / 3600:.0f}")
    print(f"scale events        : {replay.scale_out_events} out / {replay.scale_in_events} in")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos run: the closed loop, clean vs under a fault schedule.

    Scores the graceful-degradation machinery end to end: telemetry
    corruption is imputed away, planner crashes degrade to the reactive
    fallback, actuation failures hit the simulated cluster — and the
    whole faulted run must be bit-identical when repeated.  Exits
    non-zero if the repeat diverges or the violation-rate regression
    exceeds ``--max-regression``.  Without ``--faults`` a random schedule
    (``--fault-seed``) becomes the spec's ``faults``, and
    :func:`~repro.evaluation.chaos.chaos_run` runs the spec with and
    without it.
    """
    from .evaluation.chaos import chaos_run, format_chaos_report
    from .faults import FaultSchedule

    spec = _spec(args)
    train, test = _load_trace(args.trace, args.days, args.seed)
    if spec.faults is None:
        schedule = FaultSchedule.random(
            length=len(test.values), rates=DEFAULT_CHAOS_RATES, seed=args.fault_seed
        )
        spec = replace(spec, faults=schedule.spec)
    start, forecaster = len(train.values), spec.forecaster()
    _checked(lambda: spec.build(forecaster, start_tick=start))  # a bad flag exits before the fit
    report = chaos_run(spec, forecaster.fit(train.values), test.values, start_tick=start)
    print(format_chaos_report(report))
    if report.deterministic is False:
        print("chaos run is non-deterministic", file=sys.stderr)
        return 1
    if args.max_regression is not None and report.violation_regression > args.max_regression:
        print(f"violation regression {report.violation_regression:.3f} exceeds "
              f"--max-regression {args.max_regression:.3f}", file=sys.stderr)
        return 1
    return 0


@dataclass(frozen=True)
class _Feed(Record):
    """Where ``serve``'s ticks come from, checkpointed beside the spec: a
    tick file, or the test split of the synthetic trace the spec's seed
    draws (which is also what a fresh loop is fitted on)."""

    trace: str
    days: int
    source: str | None
    follow: bool

    def __post_init__(self) -> None:
        if self.trace not in TRACES:
            raise ValueError(f"trace: unknown trace {self.trace!r}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the closed loop as an always-on daemon.

    Telemetry ticks stream in (from a file, or an in-process replay of
    the synthetic trace's test split), every tick drives one
    :meth:`~repro.core.runtime.AutoscalingRuntime.step`, and a
    stdlib HTTP control plane serves live state.  ``--restore`` resumes
    from a checkpoint: the loop is rebuilt from the checkpoint's spec and
    feed (so CLI trace/model/policy flags are ignored), dynamic state is
    loaded, and the source is fast-forwarded — subsequent decisions are
    bit-identical to an uninterrupted run.
    """
    import asyncio
    from pathlib import Path

    from .obs import TraceCollector
    from .service import (
        FileTailSource, GeneratorSource, ServiceRuntime, load_checkpoint, restore_from_checkpoint,
    )

    state = None
    try:
        if args.restore:
            # The checkpoint's spec and feed are authoritative (a restored loop
            # under other flags would silently break bit-identity), read by
            # name and type: a missing, unknown or mistyped field exits 2.
            state = load_checkpoint(args.restore)
            config = dict(state["config"])
            spec = LoopSpec.from_state(config.pop("spec", None), "checkpoint config.spec")
            feed = _Feed.from_state(config, "checkpoint config")
        else:
            spec = _spec(args)
            feed = _Feed(args.trace, args.days, args.source, args.follow)
        train, test = _load_trace(feed.trace, feed.days, spec.seed)
        forecaster = spec.forecaster()
        start, history = len(train.values), train.values
        runtime, _, adaptation = spec.build(forecaster, start_tick=start, history=history)
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    if state is None:  # a restore loads the fitted state instead
        forecaster.fit(train.values)

    if feed.source:
        source = FileTailSource(feed.source, follow=feed.follow)
    else:
        observed, faults = test.values, spec.fault_schedule()
        if faults:
            from .faults import corrupt_series

            observed, _ = corrupt_series(test.values, faults)
        source = GeneratorSource(observed)

    if state is not None:
        try:
            position = restore_from_checkpoint(state, runtime=runtime, adaptation=adaptation)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        source.seek(position)
        print(f"restored from {args.restore} at tick {runtime.tick} "
              f"(source position {position})", file=sys.stderr)

    service = ServiceRuntime(
        runtime, source, port=args.port, tick_interval=args.tick_interval,
        checkpoint_dir=args.checkpoint_dir, checkpoint_every=args.checkpoint_every,
        checkpoint_at=args.checkpoint_at, max_ticks=args.max_ticks,
        config={"spec": spec.to_state(), **feed.to_state()}, decision_log=args.decisions_out,
        adaptation=adaptation, tracer=TraceCollector(max_traces=64), linger=args.linger,
    )

    async def _serve() -> None:
        task = asyncio.ensure_future(service.run())
        while service.port is None and not task.done():
            await asyncio.sleep(0.01)
        if service.port is not None:
            print(f"serving on http://127.0.0.1:{service.port}", flush=True)
            if args.port_file:
                Path(args.port_file).write_text(str(service.port))
        await task

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print(f"processed {service.ticks_processed} ticks ({runtime.state.decisions_committed} "
          f"decisions, {service.checkpoints_written} checkpoints, "
          f"{service.alert_replans} alert replans)", file=sys.stderr)
    if adaptation is not None:
        print(f"adaptation: {adaptation.refits} refits, {adaptation.promotions} promotions, "
              f"{adaptation.rollbacks} rollbacks, {adaptation.rejections} rejections "
              f"(state: {adaptation.state})", file=sys.stderr)
    return 0


def _common_parent() -> argparse.ArgumentParser:
    """Trace/model-shape/telemetry flags shared by every loop command.

    Parent parsers (``add_help=False``) keep the flag surface identical
    across ``evaluate``/``backtest``/``chaos``/``serve`` — one
    definition, one help text, one default.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--trace", choices=sorted(TRACES), default="alibaba")
    p.add_argument("--days", type=int, default=14, help="trace length in days")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--context", type=int, default=72, help="context steps (10 min each)")
    p.add_argument("--horizon", type=int, default=72, help="forecast steps")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--threshold", type=float, default=60.0, help="per-node workload threshold")
    p.add_argument("--telemetry", metavar="PATH", help="stream telemetry events (spans, "
                   "counters, gauges, histograms) to PATH as JSON lines")
    return p


def _policy_parent() -> argparse.ArgumentParser:
    """Quantile-policy and replan flags (evaluate/simulate/chaos/serve)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--quantile", type=float, default=0.9)
    p.add_argument("--adaptive", action="store_true",
                   help="use the uncertainty-aware adaptive policy")
    p.add_argument("--quantile-low", type=float, default=0.7,
                   help="optimistic level for --adaptive")
    p.add_argument("--uncertainty-threshold", type=float, default=100.0)
    p.add_argument("--replan-every", type=int,
                   help="re-plan cadence in intervals (default: horizon)")
    return p


def _monitoring_parent() -> argparse.ArgumentParser:
    """Model-health monitoring flags (evaluate/backtest/compare/chaos/serve)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--monitor", action="store_true",
                   help="track model health online: windowed quantile calibration, rolling "
                        "wQL/MAPE, drift detection, alerts, and per-decision provenance")
    p.add_argument("--monitor-window", type=int, default=24,
                   help="steps per calibration window (default 24)")
    p.add_argument("--alert", action="append", metavar="RULE",
                   help="extra alert rule, e.g. 'coverage@0.9 < 0.8 for 12' "
                        "or 'drift_score > 6' (repeatable; implies --monitor)")
    p.add_argument("--slo", action="append", metavar="SPEC",
                   help="service-level objective with error-budget burn-rate alerting, "
                        "e.g. 'qos_violation_rate < 0.05 over 288', 'coverage@0.9 >= 0.85 "
                        "over 144', or 'plan_latency_p99 < 0.5s' (repeatable; implies --monitor)")
    return p


def _faults_parent() -> argparse.ArgumentParser:
    """Fault-injection flag (evaluate/chaos/serve)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--faults", metavar="SPEC",
                   help="fault schedule, e.g. 'nan@12,spike@30:8,planner_error@90,node_crash@50' "
                        "(times are test-relative intervals; see repro.faults)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-autoscale",
        description="Robust predictive auto-scaling for cloud databases (ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common, policy = _common_parent(), _policy_parent()
    monitoring, faults = _monitoring_parent(), _faults_parent()

    def command(name, func, help, parents=None, model=None):
        """A subcommand's ``add_argument``; a loop command (``parents`` given)
        takes the common flags, and ``--model`` when it has a default model."""
        p = sub.add_parser(name, help=help, parents=[] if parents is None else [common, *parents])
        if model is not None:
            p.add_argument("--model", default=model, choices=MODELS)
        p.set_defaults(func=func)
        return p.add_argument

    command("forecast", cmd_forecast, "print a quantile forecast vs actuals", [], "tft")
    arg = command("evaluate", cmd_evaluate, "evaluate one robust scaling strategy",
                  [policy, monitoring, faults], "tft")
    arg("--inject-shift", metavar="START:MAGNITUDE",
        help="inject a permanent level shift into the test split at test-relative "
             "step START (stress the monitors with a regime change)")
    command("backtest", cmd_backtest, "rolling-origin forecast evaluation (Table I metrics)",
            [monitoring], "deepar")
    command("compare", cmd_compare, "compare reactive and robust strategies", [monitoring])
    arg = command("simulate", cmd_simulate, "closed-loop run on the simulated cluster",
                  [policy], "naive")
    arg("--checkpoint-gb", type=float, default=4.0, help="in-memory state rebuilt on scale-out")

    arg = command("chaos", cmd_chaos, "closed-loop run under an injected fault schedule",
                  [policy, monitoring, faults], "naive")
    arg("--fault-seed", type=int, default=0, help="seed for the default random fault "
        "schedule (used when --faults is not given)")
    arg("--max-regression", type=float, metavar="RATE", help="fail (exit 1) if the faulted "
        "violation rate exceeds the clean one by more than RATE")

    arg = command("serve", cmd_serve, "run the closed loop as a daemon with an HTTP control "
                  "plane", [policy, monitoring, faults], "naive")
    arg("--source", metavar="PATH", help="telemetry tick file (bare numbers or "
        "{\"value\": ...} JSONL); default: replay the synthetic trace's test split in-process")
    arg("--follow", action="store_true", help="with --source, keep tailing the file for "
        "appended ticks instead of stopping at EOF")
    arg("--port", type=int, default=0, help="control-plane port (default 0: ephemeral)")
    arg("--port-file", metavar="PATH", help="write the bound port to PATH once serving "
        "(lets scripts find an ephemeral port)")
    arg("--tick-interval", type=float, default=0.0,
        help="seconds between steps (0: replay at full speed)")
    arg("--max-ticks", type=int, help="stop after processing N ticks this session")
    arg("--checkpoint-dir", metavar="DIR",
        help="where POST /checkpoint and automatic checkpoints write")
    arg("--checkpoint-every", type=int, metavar="N", help="checkpoint every N ticks")
    arg("--checkpoint-at", type=int, metavar="N", help="checkpoint once after the Nth tick "
        "of this session (deterministic restore-test hook)")
    arg("--restore", metavar="CKPT", help="resume from a checkpoint directory; the loop spec "
        "and feed are taken from the checkpoint and subsequent decisions are bit-identical "
        "to an uninterrupted run")
    arg("--decisions-out", metavar="PATH",
        help="append every committed decision to PATH as crash-safe JSON lines")
    arg("--linger", type=float, default=0.0,
        help="keep the control plane up N seconds after the tick stream ends")
    arg("--adapt", action="store_true", help="close the drift→adaptation loop: health alerts "
        "trigger a warm-started refit, the candidate shadows the live model, and a canary "
        "policy promotes or rolls it back (implies --monitor)")
    arg("--shadow-window", type=int, default=96, metavar="N", help="max ticks a candidate "
        "may shadow without earning promotion before it is rejected (default 96)")
    arg("--promote-policy", metavar="SPEC", help="canary promotion policy, e.g. "
        "'wql<=0.95 cal<=0.1 soak=2 guard=4' (see docs/adaptation.md)")
    arg("--refit-epochs", type=int, metavar="N", help="epoch budget for warm refits "
        "(default: the model's configured epochs with early stopping)")
    arg("--adapt-cooldown", type=int, default=48, metavar="N", help="ticks after a "
        "rejection/rollback before alert-driven refits resume (default 48)")

    arg = command("report", cmd_report, "summarise a telemetry file written with --telemetry")
    arg("path", help="JSON-lines telemetry file")
    arg("--traces", type=int, default=0, metavar="N",
        help="also render timelines for the last N step traces in the file")

    arg = command("top", cmd_top, "live terminal dashboard over a running daemon")
    arg("--host", default="127.0.0.1")
    arg("--port", type=int, help="control-plane port of the daemon")
    arg("--port-file", metavar="PATH", help="read the port from a file written by "
        "`serve --port-file`")
    arg("--interval", type=float, default=2.0, help="seconds between refreshes (default 2)")
    arg("--once", action="store_true", help="print a single frame and exit (no ANSI "
        "clearing; for scripts and smoke tests)")
    arg("--width", type=int, default=80, help="frame width in columns (default 80)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    telemetry = getattr(args, "telemetry", None)
    if telemetry is None:
        return args.func(args)

    from .obs import JsonlSink, MetricsRegistry, using_registry

    registry = MetricsRegistry()
    try:
        sink = JsonlSink(telemetry)
    except OSError as error:
        print(f"cannot open telemetry file: {error}", file=sys.stderr)
        return 2
    registry.add_sink(sink)
    try:
        with using_registry(registry):
            return args.func(args)
    finally:
        registry.flush()
        sink.close()
        print(f"telemetry: {sink.records_written} events -> {telemetry}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
