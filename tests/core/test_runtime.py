"""Tests for the closed-loop autoscaling runtime."""

import numpy as np
import pytest

from repro.core import AutoscalingRuntime, ReactiveAvgScaler, ScalingPlan
from repro.core.plan import required_nodes


class OraclePlanner:
    """Plans exactly the workload it will be asked to serve (test double)."""

    name = "oracle"

    def __init__(self, series, horizon, threshold):
        self.series = np.asarray(series, dtype=float)
        self.horizon = horizon
        self.threshold = threshold
        self.calls = []

    def plan(self, context, start_index=0):
        self.calls.append(start_index)
        future = self.series[start_index + len(context) :][: self.horizon]
        return ScalingPlan(
            nodes=required_nodes(future, self.threshold),
            threshold=self.threshold,
            strategy="oracle",
        )


def make_runtime(series, context=6, horizon=4, replan=None, threshold=60.0):
    planner = OraclePlanner(series, horizon, threshold)
    runtime = AutoscalingRuntime(
        planner=planner,
        context_length=context,
        horizon=horizon,
        threshold=threshold,
        replan_every=replan,
    )
    return runtime, planner


def count_replans(runtime):
    """Wrap ``runtime._replan`` so every call lands in the returned list."""
    calls = []
    replan = runtime._replan

    def counted():
        calls.append(runtime.tick)
        return replan()

    runtime._replan = counted
    return calls


def phase_ns(step):
    """A step's phases, summed, in the integer nanoseconds spans record."""
    return sum(round(seconds * 1e9) for seconds in step.phase_seconds.values())


class TestColdStart:
    def test_first_interval_single_node(self):
        runtime, _ = make_runtime(np.full(20, 100.0))
        assert runtime.target_nodes() == 1

    def test_fallback_reacts_before_context_fills(self):
        series = np.full(20, 600.0)
        runtime, planner = make_runtime(series)
        allocations = []
        for value in series[:5]:
            allocations.append(runtime.target_nodes())
            runtime.observe(value)
        # After the first observation the fallback sees 600 -> 10 nodes.
        assert allocations[0] == 1
        assert allocations[1] == 10
        assert planner.calls == []  # predictive planning not yet possible


class TestPredictivePhase:
    def test_replans_on_schedule(self):
        series = np.full(30, 300.0)
        runtime, planner = make_runtime(series, context=6, horizon=4)
        runtime.run(series)
        # First plan at t=6, then every 4 steps: 6, 10, 14, ...
        assert planner.calls[0] == 0  # start_index of the context window
        diffs = np.diff([c for c in planner.calls])
        assert np.all(diffs == 4)

    def test_receding_horizon_mode(self):
        series = np.full(30, 300.0)
        runtime, planner = make_runtime(series, context=6, horizon=4, replan=1)
        runtime.run(series)
        diffs = np.diff([c for c in planner.calls])
        assert np.all(diffs == 1)

    def test_oracle_runtime_never_underprovisions_after_warmup(self):
        rng = np.random.default_rng(0)
        series = rng.uniform(100, 2000, size=60)
        runtime, _ = make_runtime(series, context=6, horizon=4)
        allocations = runtime.run(series)
        needed = required_nodes(series, 60.0)
        # After the context fills (first 6 steps + first plan boundary),
        # the oracle-backed runtime is exact.
        assert np.array_equal(allocations[6:], needed[6:])

    def test_decisions_logged(self):
        series = np.full(30, 300.0)
        runtime, planner = make_runtime(series)
        runtime.run(series)
        assert runtime.decisions
        # The docstring promises "records every decision": the 6
        # cold-start fallback activations AND every predictive plan.
        fallback = [d for d in runtime.decisions if d.source == "reactive-fallback"]
        predictive = [d for d in runtime.decisions if d.source == "predictive"]
        assert len(fallback) == 6
        assert len(predictive) == len(planner.calls)
        assert len(runtime.decisions) == len(fallback) + len(predictive)
        times = [d.time_index for d in runtime.decisions]
        assert times == sorted(times)

    def test_fallback_decisions_carry_a_plan(self):
        series = np.full(20, 600.0)
        runtime, _ = make_runtime(series)
        runtime.target_nodes()
        runtime.observe(600.0)
        runtime.target_nodes()
        decision = runtime.decisions[-1]
        assert decision.source == "reactive-fallback"
        assert decision.plan.nodes.tolist() == [10]
        assert decision.plan.strategy == "Reactive-Max"


class TestValidation:
    def test_rejects_negative_workload(self):
        runtime, _ = make_runtime(np.ones(20))
        with pytest.raises(ValueError):
            runtime.observe(-1.0)

    def test_rejects_bad_replan_cadence(self):
        with pytest.raises(ValueError):
            make_runtime(np.ones(20), replan=9)  # > horizon

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            AutoscalingRuntime(
                planner=None, context_length=0, horizon=4, threshold=60.0
            )

    def test_custom_fallback_used(self):
        series = np.full(20, 600.0)
        planner = OraclePlanner(series, 4, 60.0)
        runtime = AutoscalingRuntime(
            planner=planner, context_length=10, horizon=4, threshold=60.0,
            fallback=ReactiveAvgScaler(window=3),
        )
        runtime.observe(600.0)
        assert runtime.target_nodes() == 10


class QuantilePlanner:
    """Planner double stamping the forecast metadata a manager would."""

    name = "quantile-double"

    def __init__(self, horizon, threshold, center=300.0, spread=100.0):
        self.horizon = horizon
        self.threshold = threshold
        self.levels = np.array([0.1, 0.5, 0.9])
        self.values = np.vstack(
            [
                np.full(horizon, center - spread),
                np.full(horizon, center),
                np.full(horizon, center + spread),
            ]
        )

    def plan(self, context, start_index=0):
        plan = ScalingPlan(
            nodes=required_nodes(self.values[-1], self.threshold),
            threshold=self.threshold,
            strategy="quantile-double",
            quantile_levels=np.full(self.horizon, 0.9),
        )
        plan.metadata["forecast_levels"] = self.levels
        plan.metadata["forecast_values"] = self.values
        plan.metadata["bound_workload"] = self.values[-1]
        plan.metadata["uncertainty"] = self.values[-1] - self.values[0]
        plan.metadata["ramp_clipped_steps"] = 1
        plan.metadata["model"] = "DoubleForecaster"
        plan.metadata["policy"] = "fixed-0.9"
        return plan


class TestProvenance:
    def test_records_kept_for_every_decision(self):
        series = np.full(20, 300.0)
        runtime, planner = make_runtime(series, context=6, horizon=4)
        runtime.record_provenance = True
        runtime.run(series)
        fallback = [r for r in runtime.provenance if r["source"] == "reactive-fallback"]
        predictive = [r for r in runtime.provenance if r["source"] == "predictive"]
        # One fallback record per warm-up interval, one predictive record
        # per plan: every planning decision is accounted for.
        assert len(fallback) == 6
        predictive_decisions = [
            d for d in runtime.decisions if d.source == "predictive"
        ]
        assert len(predictive) == len(planner.calls) == len(predictive_decisions)
        assert len(runtime.provenance) == len(fallback) + len(predictive)

    def test_predictive_record_fields(self):
        series = np.full(20, 300.0)
        planner = QuantilePlanner(horizon=4, threshold=60.0)
        runtime = AutoscalingRuntime(
            planner=planner, context_length=6, horizon=4, threshold=60.0,
            record_provenance=True,
        )
        runtime.run(series)
        record = next(r for r in runtime.provenance if r["source"] == "predictive")
        assert record["strategy"] == "quantile-double"
        assert record["tau_min"] == record["tau_max"] == 0.9
        assert record["bound_max"] == 400.0
        assert record["bound_total"] == 1600.0
        assert record["uncertainty_mean"] == 200.0
        assert record["ramp_clipped_steps"] == 1
        assert record["model"] == "DoubleForecaster"
        assert record["policy"] == "fixed-0.9"
        assert record["nodes_first"] == record["nodes"][0]

    def test_fallback_record_fields(self):
        series = np.full(20, 600.0)
        runtime, _ = make_runtime(series)
        runtime.record_provenance = True
        runtime.target_nodes()
        runtime.observe(600.0)
        runtime.target_nodes()
        record = runtime.provenance[-1]
        assert record["source"] == "reactive-fallback"
        assert record["window_statistic"] == 600.0
        assert record["nodes_first"] == 10

    def test_records_flow_to_sinks_without_record_provenance(self):
        from repro.obs import MetricsRegistry, using_registry
        from repro.obs.sinks import InMemorySink

        series = np.full(20, 300.0)
        sink = InMemorySink()
        with using_registry(MetricsRegistry(sinks=[sink])):
            runtime, _ = make_runtime(series, context=6, horizon=4)
            runtime.run(series)
        events = [r for r in sink.records if r.get("kind") == "provenance"]
        assert events
        assert all(e["name"] == "runtime.decision" for e in events)
        assert runtime.provenance == []  # not kept unless asked

    def test_zero_cost_when_nobody_listens(self, monkeypatch):
        # The zero-cost contract: with no sinks, no monitor, and
        # record_provenance off, the hot path must never even *build* a
        # provenance record.  Make record construction explode to prove it.
        from repro.core import runtime as runtime_module
        from repro.obs import MetricsRegistry, using_registry

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("provenance record built with nobody listening")

        # One builder serves every source (fallback and predictive alike).
        monkeypatch.setattr(runtime_module.Decision, "record", boom)
        series = np.full(20, 300.0)
        with using_registry(MetricsRegistry()):
            runtime, _ = make_runtime(series, context=6, horizon=4)
            allocations = runtime.run(series)
        assert len(allocations) == len(series)


class TestMonitorFeed:
    def test_monitor_receives_per_step_quantiles(self):
        from repro.obs import ModelHealthMonitor

        series = np.full(20, 300.0)
        planner = QuantilePlanner(horizon=4, threshold=60.0, center=300.0)
        monitor = ModelHealthMonitor(window=4)
        runtime = AutoscalingRuntime(
            planner=planner, context_length=6, horizon=4, threshold=60.0,
            monitor=monitor,
        )
        runtime.run(series)
        # The first plan lands at t=6; 14 covered intervals follow.
        assert monitor.steps_observed == 14
        window = monitor.windows[0]
        assert window.start_index == 6
        # Constant actual 300 vs q0.9=400 / q0.1=200: upper always covers,
        # lower never does, and allocations never violate the threshold.
        assert window.coverage["0.9"] == 1.0
        assert window.coverage["0.1"] == 0.0
        assert window.violation_rate == 0.0

    def test_monitor_skipped_for_plans_without_forecast_metadata(self):
        from repro.obs import ModelHealthMonitor

        series = np.full(20, 300.0)
        monitor = ModelHealthMonitor(window=4)
        runtime, _ = make_runtime(series, context=6, horizon=4)
        runtime.monitor = monitor
        runtime.run(series)  # OraclePlanner stamps no forecast arrays
        assert monitor.steps_observed == 0


class TestTelemetry:
    def test_runtime_emits_counters_spans_and_gauge(self):
        from repro.obs import MetricsRegistry, summarize_records, using_registry
        from repro.obs.sinks import InMemorySink

        series = np.full(20, 300.0)
        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        with using_registry(registry):
            runtime, _ = make_runtime(series, context=6, horizon=4)
            replans = count_replans(runtime)
            allocations = runtime.run(series)
        assert len(allocations) == len(series)

        snap = registry.snapshot()
        assert snap["counters"]["runtime.observations"] == len(series)
        # Fallback serves the first `context` intervals, prediction after.
        assert snap["counters"]["runtime.fallback_activations"] == 6
        expected_plans = snap["counters"]["runtime.decisions{source=predictive}"]
        assert expected_plans == len(replans) >= 1
        # One span per step; a `plan` child per replan, around the planner.
        assert snap["spans"]["runtime.step"]["count"] == len(series)
        assert snap["spans"]["runtime.step/plan"]["count"] == len(replans)
        assert snap["spans"]["runtime.step/plan/planner"]["count"] == expected_plans
        assert set(snap["spans"]) == {
            "runtime.step", "runtime.step/plan", "runtime.step/plan/planner",
        }
        assert snap["gauges"]["runtime.nodes_requested"] == allocations[-1]

        # The same facts flow to the sink as a replayable stream: spans
        # as they close (no trace is open), counters and gauges on flush.
        assert {r["kind"] for r in sink.records} == {"span", "provenance"}
        registry.flush()
        assert sink.records[-1]["kind"] == "metrics"
        replayed = summarize_records(sink.records)
        assert replayed.counters == snap["counters"]
        assert replayed.gauges == snap["gauges"]
        assert {key: span.count for key, span in replayed.spans.items()} == {
            key: span["count"] for key, span in snap["spans"].items()
        }

    def test_phase_seconds_are_the_phase_spans_durations(self):
        # An idle step is one span and times its phases by the registry's
        # clock; a planning step adds `plan` around the planner's spans.
        # The phases sum to at most the step's span, traced or not.
        from repro import FixedQuantilePolicy, RobustPredictiveAutoscaler
        from repro.forecast import SeasonalNaiveForecaster
        from repro.obs import MetricsRegistry, using_registry
        from repro.obs.sinks import InMemorySink
        from repro.obs.trace import TraceCollector

        series = np.full(20, 300.0)
        sink = InMemorySink()
        with using_registry(MetricsRegistry(sinks=[sink])):
            runtime, _ = make_runtime(series, context=6, horizon=4)
            steps = [runtime.step(value) for value in series]
        step_spans = [
            r["duration_ns"] for r in sink.records
            if r["kind"] == "span" and r["name"] == "runtime.step"
        ]
        assert len(step_spans) == len(steps)
        for step, duration_ns in zip(steps, step_spans):
            assert set(step.phase_seconds) == {"plan", "actuate", "observe"}
            assert all(seconds >= 0 for seconds in step.phase_seconds.values())
            assert phase_ns(step) <= duration_ns

        forecaster = SeasonalNaiveForecaster(4, season=4).fit(np.full(24, 300.0))
        planner = RobustPredictiveAutoscaler(forecaster, 60.0, FixedQuantilePolicy(0.9))
        tracer = TraceCollector(max_traces=len(series))
        registry = MetricsRegistry()
        registry.set_tracer(tracer)
        with using_registry(registry):
            runtime = AutoscalingRuntime(planner, context_length=6, horizon=4, threshold=60.0)
            steps = []
            for value in series:
                # A step opens no trace: its driver brackets the tick, as
                # the daemon does.
                tracer.begin(runtime.tick)
                steps.append(runtime.step(value))
                tracer.end()
        traces = tracer.traces()
        assert [trace["trace_id"] for trace in traces] == [step.tick for step in steps]
        assert any(step.planned for step in steps)
        for trace, step in zip(traces, steps):
            spans = trace["spans"]
            tree = [(span["name"], span.get("parent")) for span in spans]
            if step.planned:
                assert tree == [
                    ("runtime.step", None),
                    ("runtime.step/plan", 0),
                    ("runtime.step/plan/planner", 1),
                    ("runtime.step/plan/planner/forecast", 2),
                    ("runtime.step/plan/planner/solve", 2),
                ]
            else:
                assert tree == [("runtime.step", None)]
            assert phase_ns(step) <= spans[0]["duration_ns"]

    def test_a_step_opens_no_trace(self):
        # Traces are the daemon's, one per tick: a bare step under an
        # attached tracer streams its spans as records of their own.
        from repro.obs import MetricsRegistry, using_registry
        from repro.obs.sinks import InMemorySink
        from repro.obs.trace import TraceCollector

        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        tracer = TraceCollector()
        registry.set_tracer(tracer)
        with using_registry(registry):
            runtime, _ = make_runtime(np.full(8, 300.0), context=6, horizon=4)
            runtime.step(300.0)
        assert tracer.traces_started == 0
        assert [r["name"] for r in sink.records if r["kind"] == "span"] == [
            "runtime.step",
        ]

    def test_no_telemetry_leaks_outside_scoped_registry(self):
        from repro.obs import MetricsRegistry, using_registry

        series = np.full(15, 300.0)
        scoped = MetricsRegistry()
        with using_registry(scoped):
            runtime, _ = make_runtime(series, context=6, horizon=4)
            runtime.run(series)
        fresh = MetricsRegistry()
        with using_registry(fresh):
            pass
        assert fresh.snapshot()["counters"] == {}
        assert scoped.snapshot()["counters"]["runtime.observations"] == len(series)
