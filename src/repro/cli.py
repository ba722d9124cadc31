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
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import (
    FixedQuantilePolicy,
    ReactiveAvgScaler,
    ReactiveMaxScaler,
    RobustPredictiveAutoscaler,
    UncertaintyAwarePolicy,
    evaluate_strategy,
)
from .forecast import (
    ARIMAForecaster,
    DeepARForecaster,
    MLPForecaster,
    SeasonalNaiveForecaster,
    TFTForecaster,
    TrainingConfig,
)
from .traces import STEPS_PER_DAY, alibaba_like_trace, google_like_trace

TRACES = {"alibaba": alibaba_like_trace, "google": google_like_trace}


def _build_forecaster(name: str, context: int, horizon: int, epochs: int, seed: int):
    config = TrainingConfig(epochs=epochs, window_stride=2, seed=seed)
    grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
    if name == "tft":
        forecaster = TFTForecaster(context, horizon, quantile_levels=grid, config=config)
    elif name == "deepar":
        forecaster = DeepARForecaster(context, horizon, config=config)
    elif name == "mlp":
        forecaster = MLPForecaster(context, horizon, config=config)
    elif name == "arima":
        forecaster = ARIMAForecaster(horizon)
    elif name == "naive":
        forecaster = SeasonalNaiveForecaster(horizon, season=STEPS_PER_DAY)
    else:
        raise SystemExit(f"unknown model {name!r}")
    return forecaster


def _load_trace(args: argparse.Namespace):
    trace = TRACES[args.trace](num_steps=args.days * STEPS_PER_DAY, seed=args.seed)
    return trace.split(test_fraction=0.25)


def _parse_shift(spec: str):
    """Parse ``--inject-shift START:MAGNITUDE`` (START is test-relative)."""
    try:
        start_text, magnitude_text = spec.split(":", 1)
        return int(start_text), float(magnitude_text)
    except ValueError:
        raise SystemExit(
            f"cannot parse --inject-shift {spec!r}; expected START:MAGNITUDE, "
            f"e.g. 90:1500"
        )


#: Per-interval Bernoulli rates for the ``chaos`` command's default
#: schedule — a little of everything, at every layer.
DEFAULT_CHAOS_RATES = {
    "nan": 0.02,
    "spike": 0.01,
    "drop": 0.01,
    "duplicate": 0.01,
    "planner_error": 0.05,
    "planner_timeout": 0.02,
    "node_crash": 0.01,
    "provision_fail": 0.01,
    "warmup_stall": 0.01,
}


def _parse_faults(args: argparse.Namespace):
    """The ``--faults`` spec as a FaultSchedule (None when absent)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from .faults import FaultSchedule

    try:
        return FaultSchedule.parse(spec)
    except ValueError as error:
        raise SystemExit(str(error))


def _monitoring_enabled(args: argparse.Namespace) -> bool:
    """--monitor, any --slo spec, or --adapt (SLOs need the health
    monitor feed; adaptation compares candidate vs incumbent monitors)."""
    return bool(
        getattr(args, "monitor", False)
        or getattr(args, "slo", None)
        or getattr(args, "adapt", False)
    )


def _build_monitor(args: argparse.Namespace):
    """A ModelHealthMonitor wired to default + user alert rules and SLOs."""
    from .obs import (
        AlertEngine,
        ModelHealthMonitor,
        SLOTracker,
        default_rules,
        parse_rule,
    )

    nominal = getattr(args, "quantile", 0.9)
    rules = default_rules(nominal_level=nominal)
    for spec in getattr(args, "alert", None) or []:
        try:
            rules.append(parse_rule(spec))
        except ValueError as error:
            raise SystemExit(str(error))
    engine = AlertEngine(rules)
    slos = None
    if getattr(args, "slo", None):
        # The tracker shares the alert engine, so SLO burn-rate alerts
        # flow through the same firing path (and trigger plan-on-alert
        # in the service daemon) as model-health alerts.
        try:
            slos = SLOTracker(args.slo, engine=engine)
        except ValueError as error:
            raise SystemExit(str(error))
    return ModelHealthMonitor(
        window=args.monitor_window, alerts=engine, slos=slos
    )


def _print_model_health(monitor, provenance: list[dict]) -> None:
    from .obs import ModelHealthSummary, format_model_health

    health = ModelHealthSummary(
        windows=monitor.window_records(),
        drifts=monitor.drift_records(),
        alerts=monitor.alerts.alert_records() if monitor.alerts else [],
        provenance=provenance,
    )
    print()
    print(format_model_health(health))


def cmd_forecast(args: argparse.Namespace) -> int:
    train, test = _load_trace(args)
    forecaster = _build_forecaster(args.model, args.context, args.horizon, args.epochs, args.seed)
    forecaster.fit(train.values)
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

    The planner is driven by an :class:`AutoscalingRuntime` over the test
    split (reactive fallback until a full context exists, then committed
    predictive plans), and the resulting allocation series is replayed on
    the simulated cluster so QoS violations include warm-up effects.
    With ``--telemetry`` the whole run streams spans and counters to a
    JSONL file that ``repro-autoscale report`` can summarise.
    """
    from .core import AutoscalingRuntime
    from .core.plan import ScalingPlan, evaluate_plan
    from .simulator import replay_plan

    train, test = _load_trace(args)
    forecaster = _build_forecaster(args.model, args.context, args.horizon, args.epochs, args.seed)
    forecaster.fit(train.values)
    if args.inject_shift:
        from .traces.anomalies import inject_level_shift

        shift_start, shift_magnitude = _parse_shift(args.inject_shift)
        test = inject_level_shift(test, shift_start, shift_magnitude)
    if args.adaptive:
        policy = UncertaintyAwarePolicy(
            args.quantile_low, args.quantile, uncertainty_threshold=args.uncertainty_threshold
        )
    else:
        policy = FixedQuantilePolicy(args.quantile)
    scaler = RobustPredictiveAutoscaler(forecaster, args.threshold, policy)
    faults = _parse_faults(args)
    observed = test.values
    planner = scaler
    telemetry_faults: dict[str, int] = {}
    if faults:
        from .faults import FlakyPlanner, corrupt_series

        # Fault times in the spec are test-relative; the planner sees
        # absolute indices, so shift its schedule lookups by len(train).
        observed, telemetry_faults = corrupt_series(test.values, faults)
        planner = FlakyPlanner(scaler, faults, time_offset=len(train.values))
    runtime = AutoscalingRuntime(
        planner=planner,
        context_length=args.context,
        horizon=args.horizon,
        threshold=args.threshold,
        start_tick=len(train.values),
        invalid_policy="impute" if faults else "raise",
    )
    monitor = None
    if _monitoring_enabled(args):
        monitor = _build_monitor(args)
        runtime.monitor = monitor
        runtime.record_provenance = True
    allocations = runtime.run(observed)
    committed = ScalingPlan(
        nodes=allocations, threshold=args.threshold, strategy=scaler.name
    )
    # QoS is always judged against the *true* workload — corrupted
    # telemetry changes what the loop believed, not what it had to serve.
    report = evaluate_plan(committed, test.values)
    replay = replay_plan(committed, test.values, faults=faults)
    fallback_intervals = min(args.context, len(test.values))
    violations = sum(o.violated for o in replay.outcomes)
    print(f"strategy            : {scaler.name}")
    print(f"under-provisioning  : {report.under_provisioning_rate:.4f}")
    print(f"over-provisioning   : {report.over_provisioning_rate:.4f}")
    print(f"total node-steps    : {report.total_nodes}")
    print(f"minimum node-steps  : {report.minimum_nodes}")
    predictive_plans = sum(
        d.source != "reactive-fallback" for d in runtime.decisions
    )
    print(f"planning decisions  : {predictive_plans}")
    print(f"fallback intervals  : {fallback_intervals}")
    print(f"QoS violations      : {violations} "
          f"({replay.violation_rate:.1%}, {replay.warmup_limited_violations} warm-up limited)")
    print(f"node-hours consumed : {replay.total_node_seconds / 3600:.0f}")
    if faults:
        injected = ", ".join(
            f"{kind}={count}" for kind, count in sorted(telemetry_faults.items())
        )
        print(f"faults injected     : {len(faults)} scheduled "
              f"(telemetry: {injected or 'none'})")
        print(f"invalid observations: {runtime.invalid_observations} "
              f"(imputed)")
        print(f"planner errors      : {runtime.planner_errors} "
              f"({runtime.degraded_intervals} degraded intervals)")
        print(f"actuation failures  : {replay.node_failures} crashes, "
              f"{replay.provision_failures} provision, "
              f"{replay.warmup_failures} warm-up")
    if monitor is not None:
        _print_model_health(monitor, runtime.provenance)
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    """Rolling-origin forecast evaluation over the test split.

    With ``--jobs N`` the decision windows are fanned out across N
    worker processes; the per-window sampler reseeding makes the result
    bit-identical to ``--jobs 1`` (see :func:`repro.evaluation.backtest`).
    """
    from .evaluation.backtest import backtest
    from .evaluation.report import format_table

    train, test = _load_trace(args)
    forecaster = _build_forecaster(args.model, args.context, args.horizon, args.epochs, args.seed)
    forecaster.fit(train.values)
    levels = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    monitor = _build_monitor(args) if _monitoring_enabled(args) else None
    result = backtest(
        forecaster,
        test.values,
        args.context,
        args.horizon,
        levels,
        series_start_index=len(train.values),
        n_jobs=args.jobs,
        monitor=monitor,
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
        format_model_health,
        format_summary,
        read_jsonl,
        summarize_model_health,
        summarize_records,
    )

    try:
        records = read_jsonl(args.path)
    except OSError as error:
        print(f"cannot read telemetry file: {error}", file=sys.stderr)
        return 2
    except UnicodeDecodeError:
        print(
            f"cannot read telemetry file: {args.path} is not a text file "
            f"(expected JSON lines written by --telemetry)",
            file=sys.stderr,
        )
        return 2
    if not records:
        print(
            f"no telemetry records in {args.path} — the file is empty, "
            f"contains no valid JSON lines, or the run that wrote it was "
            f"interrupted before any event was flushed",
            file=sys.stderr,
        )
        return 1
    print(format_summary(summarize_records(records)))
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
    return run_dashboard(
        args.host, port, interval=args.interval, once=args.once,
        width=args.width,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    train, test = _load_trace(args)
    rows = []
    for scaler in (ReactiveMaxScaler(), ReactiveAvgScaler()):
        ev = evaluate_strategy(scaler, test.values, args.context, args.horizon, args.threshold)
        rows.append((scaler.name, ev.report, None))
    forecaster = _build_forecaster("tft", args.context, args.horizon, args.epochs, args.seed)
    forecaster.fit(train.values)
    for tau in (0.5, 0.8, 0.9, 0.95):
        scaler = RobustPredictiveAutoscaler(forecaster, args.threshold, FixedQuantilePolicy(tau))
        monitor = _build_monitor(args) if args.monitor else None
        on_window = _monitor_feeder(monitor) if monitor is not None else None
        ev = evaluate_strategy(
            scaler, test.values, args.context, args.horizon, args.threshold,
            series_start_index=len(train.values), on_window=on_window,
        )
        rows.append((f"TFT-{tau}", ev.report, monitor))
    header = f"{'strategy':<16} {'under':>8} {'over':>8} {'nodes':>8}"
    if args.monitor:
        header += f" {'cal.err':>8} {'drift':>6}"
    print(header)
    for name, report, monitor in rows:
        row = (
            f"{name:<16} {report.under_provisioning_rate:>8.4f} "
            f"{report.over_provisioning_rate:>8.4f} {report.total_nodes:>8}"
        )
        if args.monitor:
            if monitor is not None and monitor.windows:
                mean_cal = float(
                    np.mean([w.calibration_error for w in monitor.windows])
                )
                row += f" {mean_cal:>8.3f} {len(monitor.drift_events):>6}"
            else:
                row += f" {'-':>8} {'-':>6}"
        print(row)
    return 0


def _monitor_feeder(monitor):
    """An ``evaluate_strategy`` on_window callback feeding a health monitor."""

    def on_window(point, plan, actual_window):
        levels = plan.metadata.get("forecast_levels")
        values = plan.metadata.get("forecast_values")
        if levels is None or values is None:
            return
        for h in range(min(plan.horizon, len(actual_window))):
            monitor.observe(
                levels, values[:, h], actual_window[h], time_index=point + h
            )

    return on_window


def cmd_simulate(args: argparse.Namespace) -> int:
    """Closed-loop run: runtime + forecaster + simulated cluster."""
    from .core import AutoscalingRuntime
    from .core.plan import required_nodes
    from .simulator import DisaggregatedCluster, SharedStorage, Simulation

    train, test = _load_trace(args)
    forecaster = _build_forecaster(args.model, args.context, args.horizon, args.epochs, args.seed)
    forecaster.fit(train.values)
    planner = RobustPredictiveAutoscaler(
        forecaster, args.threshold, FixedQuantilePolicy(args.quantile)
    )
    runtime = AutoscalingRuntime(
        planner=planner,
        context_length=args.context,
        horizon=args.horizon,
        threshold=args.threshold,
        replan_every=args.replan_every,
        start_tick=len(train.values),
    )
    simulation = Simulation()
    cluster = DisaggregatedCluster(
        simulation,
        SharedStorage(checkpoint_gb=args.checkpoint_gb, seed=args.seed),
        initial_nodes=1,
    )
    interval = 600.0
    violations = 0
    for workload in test.values:
        cluster.scale_to(runtime.target_nodes())
        start = simulation.now
        simulation.run(until=start + interval)
        serving = sum(
            node.serving_seconds(start, simulation.now) for node in cluster.nodes
        )
        if workload / max(serving / interval, 1e-9) > args.threshold:
            violations += 1
        runtime.observe(workload)
    steps = len(test.values)
    ideal = int(required_nodes(test.values, args.threshold).sum())
    print(f"intervals simulated : {steps}")
    predictive_plans = sum(
        d.source != "reactive-fallback" for d in runtime.decisions
    )
    print(f"planning decisions  : {predictive_plans}")
    print(f"violations          : {violations} ({violations / steps:.1%})")
    print(f"node-hours consumed : {cluster.total_node_seconds() / 3600:.0f}")
    print(f"oracle node-hours   : {ideal * interval / 3600:.0f}")
    print(f"scale events        : {cluster.scale_out_events} out / "
          f"{cluster.scale_in_events} in")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos run: the closed loop, clean vs under a fault schedule.

    Scores the graceful-degradation machinery end to end: telemetry
    corruption is imputed away, planner crashes degrade to the reactive
    fallback, actuation failures hit the simulated cluster — and the
    whole faulted run must be bit-identical when repeated.  Exits
    non-zero if the repeat diverges or the violation-rate regression
    exceeds ``--max-regression``.
    """
    from .evaluation.chaos import chaos_run, format_chaos_report
    from .faults import FaultSchedule

    train, test = _load_trace(args)
    forecaster = _build_forecaster(args.model, args.context, args.horizon, args.epochs, args.seed)
    forecaster.fit(train.values)
    scaler = RobustPredictiveAutoscaler(
        forecaster, args.threshold, FixedQuantilePolicy(args.quantile)
    )
    faults = _parse_faults(args)
    if faults is None:
        faults = FaultSchedule.random(
            length=len(test.values),
            rates=DEFAULT_CHAOS_RATES,
            seed=args.fault_seed,
        )
    report = chaos_run(
        lambda: scaler,
        test.values,
        context_length=args.context,
        horizon=args.horizon,
        threshold=args.threshold,
        faults=faults,
        replan_every=args.replan_every,
        start_index=len(train.values),
        monitor_factory=(
            (lambda: _build_monitor(args)) if _monitoring_enabled(args) else None
        ),
    )
    print(format_chaos_report(report))
    if report.deterministic is False:
        print("chaos run is non-deterministic", file=sys.stderr)
        return 1
    if (
        args.max_regression is not None
        and report.violation_regression > args.max_regression
    ):
        print(
            f"violation regression {report.violation_regression:.3f} exceeds "
            f"--max-regression {args.max_regression:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


#: Args embedded into every checkpoint so ``serve --restore`` rebuilds
#: the planner, monitor, and default source identically.
_SERVE_CONFIG_KEYS = (
    "trace", "days", "seed", "context", "horizon", "epochs", "threshold",
    "model", "quantile", "replan_every", "monitor", "monitor_window",
    "alert", "slo", "faults", "source", "follow",
    "adapt", "shadow_window", "promote_policy", "refit_epochs",
    "adapt_cooldown",
)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the closed loop as an always-on daemon.

    Telemetry ticks stream in (from a file, or an in-process replay of
    the synthetic trace's test split), every tick drives one
    :meth:`~repro.core.runtime.AutoscalingRuntime.step`, and a
    stdlib HTTP control plane serves live state.  ``--restore`` resumes
    from a checkpoint: the planner is rebuilt from the checkpoint's
    embedded config (so CLI trace/model flags are ignored), dynamic
    state is loaded, and the source is fast-forwarded — subsequent
    decisions are bit-identical to an uninterrupted run.
    """
    import asyncio
    from pathlib import Path

    from .core import AutoscalingRuntime
    from .obs import TraceCollector
    from .service import (
        FileTailSource,
        GeneratorSource,
        ServiceRuntime,
        load_checkpoint,
        restore_from_checkpoint,
    )

    state = None
    if args.restore:
        try:
            state = load_checkpoint(args.restore)
        except (FileNotFoundError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
        # The checkpoint's config is authoritative for everything that
        # shapes the planner/monitor/source — mixing a restored loop
        # with different flags would silently break bit-identity.  A key
        # this build does not read (``dtype``, once the serving precision)
        # is inert.
        for key, value in state.get("config", {}).items():
            setattr(args, key, value)

    config = {key: getattr(args, key, None) for key in _SERVE_CONFIG_KEYS}

    train, test = _load_trace(args)
    forecaster = _build_forecaster(args.model, args.context, args.horizon, args.epochs, args.seed)
    if state is None:  # a restore loads the fitted state instead
        forecaster.fit(train.values)
    scaler = RobustPredictiveAutoscaler(
        forecaster, args.threshold, FixedQuantilePolicy(args.quantile)
    )
    faults = _parse_faults(args)
    planner = scaler
    observed = test.values
    if faults:
        from .faults import FlakyPlanner, corrupt_series

        observed, _ = corrupt_series(test.values, faults)
        planner = FlakyPlanner(scaler, faults, time_offset=len(train.values))
    runtime = AutoscalingRuntime(
        planner=planner,
        context_length=args.context,
        horizon=args.horizon,
        threshold=args.threshold,
        replan_every=args.replan_every,
        start_tick=len(train.values),
        invalid_policy="impute" if faults else "raise",
    )
    if _monitoring_enabled(args):
        runtime.monitor = _build_monitor(args)
        runtime.record_provenance = True

    adaptation = None
    if getattr(args, "adapt", False):
        from .adaptation import AdaptationManager

        try:
            adaptation = AdaptationManager(
                runtime,
                policy=getattr(args, "promote_policy", None),
                shadow_window=getattr(args, "shadow_window", 96),
                refit_epochs=getattr(args, "refit_epochs", None),
                cooldown=getattr(args, "adapt_cooldown", 48),
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        # Seed the refit history with the training tail so an early
        # drift alert has material to retrain on (a restore overwrites
        # this with the checkpointed history).
        for value in train.values[-adaptation.history.maxlen :]:
            adaptation.history.append(float(value))

    if args.source:
        source = FileTailSource(args.source, follow=args.follow)
    else:
        source = GeneratorSource(observed)

    if state is not None:
        try:
            position = restore_from_checkpoint(
                state,
                runtime=runtime,
                planner=planner,
                adaptation=adaptation,
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        source.seek(position)
        print(f"restored from {args.restore} at tick {runtime.tick} "
              f"(source position {position})", file=sys.stderr)

    service = ServiceRuntime(
        runtime,
        source,
        port=args.port,
        tick_interval=args.tick_interval,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        checkpoint_at=args.checkpoint_at,
        max_ticks=args.max_ticks,
        config=config,
        decision_log=args.decisions_out,
        adaptation=adaptation,
        tracer=TraceCollector(max_traces=64),
        linger=args.linger,
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
    print(f"processed {service.ticks_processed} ticks "
          f"({runtime.state.decisions_committed} decisions, "
          f"{service.checkpoints_written} checkpoints, "
          f"{service.alert_replans} alert replans)", file=sys.stderr)
    if adaptation is not None:
        print(f"adaptation: {adaptation.refits} refits, "
              f"{adaptation.promotions} promotions, "
              f"{adaptation.rollbacks} rollbacks, "
              f"{adaptation.rejections} rejections "
              f"(state: {adaptation.state})", file=sys.stderr)
    return 0


_MODELS = ["tft", "deepar", "mlp", "arima", "naive"]


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
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="stream telemetry events (spans, counters, gauges, "
                        "histograms) to PATH as JSON lines")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for commands that fan out "
                        "(backtest); results are bit-identical to "
                        "--jobs 1 and worker telemetry is merged")
    return p


def _monitoring_parent() -> argparse.ArgumentParser:
    """Model-health monitoring flags (evaluate/backtest/compare/chaos/serve)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--monitor", action="store_true",
                   help="track model health online: windowed quantile "
                        "calibration, rolling wQL/MAPE, drift detection, "
                        "alerts, and per-decision provenance")
    p.add_argument("--monitor-window", type=int, default=24,
                   help="steps per calibration window (default 24)")
    p.add_argument("--alert", action="append", metavar="RULE",
                   help="extra alert rule, e.g. 'coverage@0.9 < 0.8 for 12' "
                        "or 'drift_score > 25' (repeatable)")
    p.add_argument("--slo", action="append", metavar="SPEC",
                   help="service-level objective with error-budget burn-rate "
                        "alerting, e.g. 'qos_violation_rate < 0.05 over 288', "
                        "'coverage@0.9 >= 0.85 over 144', or "
                        "'plan_latency_p99 < 0.5s' (repeatable; implies "
                        "--monitor)")
    return p


def _faults_parent() -> argparse.ArgumentParser:
    """Fault-injection flag (evaluate/chaos/serve)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="fault schedule, e.g. 'nan@12,spike@30:8,"
                        "planner_error@90,node_crash@50' (times are "
                        "test-relative intervals; see repro.faults)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-autoscale",
        description="Robust predictive auto-scaling for cloud databases (ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _common_parent()
    monitoring = _monitoring_parent()
    faults = _faults_parent()

    p_forecast = sub.add_parser(
        "forecast", help="print a quantile forecast vs actuals",
        parents=[common],
    )
    p_forecast.add_argument("--model", default="tft", choices=_MODELS)
    p_forecast.set_defaults(func=cmd_forecast)

    p_eval = sub.add_parser(
        "evaluate", help="evaluate one robust scaling strategy",
        parents=[common, monitoring, faults],
    )
    p_eval.add_argument("--model", default="tft", choices=_MODELS)
    p_eval.add_argument("--quantile", type=float, default=0.9)
    p_eval.add_argument("--adaptive", action="store_true",
                        help="use the uncertainty-aware adaptive policy")
    p_eval.add_argument("--quantile-low", type=float, default=0.7,
                        help="optimistic level for --adaptive")
    p_eval.add_argument("--uncertainty-threshold", type=float, default=100.0)
    p_eval.add_argument("--inject-shift", metavar="START:MAGNITUDE", default=None,
                        help="inject a permanent level shift into the test "
                            "split at test-relative step START (stress the "
                            "monitors with a regime change)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_bt = sub.add_parser(
        "backtest", help="rolling-origin forecast evaluation (Table I metrics)",
        parents=[common, monitoring],
    )
    p_bt.add_argument("--model", default="deepar", choices=_MODELS)
    p_bt.set_defaults(func=cmd_backtest)

    p_cmp = sub.add_parser(
        "compare", help="compare reactive and robust strategies",
        parents=[common, monitoring],
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser(
        "simulate", help="closed-loop run on the simulated cluster",
        parents=[common],
    )
    p_sim.add_argument("--model", default="naive", choices=_MODELS)
    p_sim.add_argument("--quantile", type=float, default=0.9)
    p_sim.add_argument("--replan-every", type=int, default=None,
                       help="re-plan cadence in intervals (default: horizon)")
    p_sim.add_argument("--checkpoint-gb", type=float, default=4.0,
                       help="in-memory state rebuilt on scale-out")
    p_sim.set_defaults(func=cmd_simulate)

    p_chaos = sub.add_parser(
        "chaos", help="closed-loop run under an injected fault schedule",
        parents=[common, monitoring, faults],
    )
    p_chaos.add_argument("--model", default="naive", choices=_MODELS)
    p_chaos.add_argument("--quantile", type=float, default=0.9)
    p_chaos.add_argument("--replan-every", type=int, default=None,
                         help="re-plan cadence in intervals (default: horizon)")
    p_chaos.add_argument("--fault-seed", type=int, default=0,
                         help="seed for the default random fault schedule "
                              "(used when --faults is not given)")
    p_chaos.add_argument("--max-regression", type=float, default=None,
                         metavar="RATE",
                         help="fail (exit 1) if the faulted violation rate "
                              "exceeds the clean one by more than RATE")
    p_chaos.set_defaults(func=cmd_chaos)

    p_serve = sub.add_parser(
        "serve", help="run the closed loop as a daemon with an HTTP control plane",
        parents=[common, monitoring, faults],
    )
    p_serve.add_argument("--model", default="naive", choices=_MODELS)
    p_serve.add_argument("--quantile", type=float, default=0.9)
    p_serve.add_argument("--replan-every", type=int, default=None,
                         help="re-plan cadence in intervals (default: horizon)")
    p_serve.add_argument("--source", metavar="PATH", default=None,
                         help="telemetry tick file (bare numbers or "
                              "{\"value\": ...} JSONL); default: replay the "
                              "synthetic trace's test split in-process")
    p_serve.add_argument("--follow", action="store_true",
                         help="with --source, keep tailing the file for "
                              "appended ticks instead of stopping at EOF")
    p_serve.add_argument("--port", type=int, default=0,
                         help="control-plane port (default 0: ephemeral)")
    p_serve.add_argument("--port-file", metavar="PATH", default=None,
                         help="write the bound port to PATH once serving "
                              "(lets scripts find an ephemeral port)")
    p_serve.add_argument("--tick-interval", type=float, default=0.0,
                         help="seconds between steps (0: replay at full speed)")
    p_serve.add_argument("--max-ticks", type=int, default=None,
                         help="stop after processing N ticks this session")
    p_serve.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="where POST /checkpoint and automatic "
                              "checkpoints write")
    p_serve.add_argument("--checkpoint-every", type=int, default=None,
                         metavar="N", help="checkpoint every N ticks")
    p_serve.add_argument("--checkpoint-at", type=int, default=None,
                         metavar="N",
                         help="checkpoint once after the Nth tick of this "
                              "session (deterministic restore-test hook)")
    p_serve.add_argument("--restore", metavar="CKPT", default=None,
                         help="resume from a checkpoint directory; planner "
                              "config is taken from the checkpoint and "
                              "subsequent decisions are bit-identical to an "
                              "uninterrupted run")
    p_serve.add_argument("--decisions-out", metavar="PATH", default=None,
                         help="append every committed decision to PATH as "
                              "crash-safe JSON lines")
    p_serve.add_argument("--linger", type=float, default=0.0,
                         help="keep the control plane up N seconds after "
                              "the tick stream ends")
    p_serve.add_argument("--adapt", action="store_true",
                         help="close the drift→adaptation loop: health "
                              "alerts trigger a warm-started refit, the "
                              "candidate shadows the live model, and a "
                              "canary policy promotes or rolls it back "
                              "(implies --monitor)")
    p_serve.add_argument("--shadow-window", type=int, default=96,
                         metavar="N",
                         help="max ticks a candidate may shadow without "
                              "earning promotion before it is rejected "
                              "(default 96)")
    p_serve.add_argument("--promote-policy", metavar="SPEC", default=None,
                         help="canary promotion policy, e.g. "
                              "'wql<=0.95 cal<=0.1 soak=2 guard=4' "
                              "(see docs/adaptation.md)")
    p_serve.add_argument("--refit-epochs", type=int, default=None,
                         metavar="N",
                         help="epoch budget for warm refits (default: the "
                              "model's configured epochs with early "
                              "stopping)")
    p_serve.add_argument("--adapt-cooldown", type=int, default=48,
                         metavar="N",
                         help="ticks after a rejection/rollback before "
                              "alert-driven refits resume (default 48)")
    p_serve.set_defaults(func=cmd_serve)

    p_report = sub.add_parser(
        "report", help="summarise a telemetry file written with --telemetry"
    )
    p_report.add_argument("path", help="JSON-lines telemetry file")
    p_report.add_argument("--traces", type=int, default=0, metavar="N",
                          help="also render timelines for the last N step "
                               "traces in the file")
    p_report.set_defaults(func=cmd_report)

    p_top = sub.add_parser(
        "top", help="live terminal dashboard over a running daemon"
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=None,
                       help="control-plane port of the daemon")
    p_top.add_argument("--port-file", metavar="PATH", default=None,
                       help="read the port from a file written by "
                            "`serve --port-file`")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes (default 2)")
    p_top.add_argument("--once", action="store_true",
                       help="print a single frame and exit (no ANSI "
                            "clearing; for scripts and smoke tests)")
    p_top.add_argument("--width", type=int, default=80,
                       help="frame width in columns (default 80)")
    p_top.set_defaults(func=cmd_top)
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
