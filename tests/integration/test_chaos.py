"""Acceptance test for fault injection + graceful degradation.

The ISSUE's bar: with planner-exception and telemetry-NaN faults
injected, ``AutoscalingRuntime.run()`` completes without raising, every
degraded interval is visible in the decision log and provenance with
``source="degraded"``, and two runs driven by the same fault-schedule
seed are bit-identical.
"""

from dataclasses import replace

import numpy as np

from repro.cli import main
from repro.core import AutoscalingRuntime, ScalingPlan
from repro.core.plan import required_nodes
from repro.evaluation import chaos_run
from repro.faults import FaultSchedule, FlakyPlanner, corrupt_series
from repro.forecast import SeasonalNaiveForecaster
from repro.loop import LoopSpec


class OraclePlanner:
    """Plans exactly the workload it will be asked to serve."""

    name = "oracle"

    def __init__(self, series, horizon, threshold=60.0):
        self.series = np.asarray(series, dtype=float)
        self.horizon = horizon
        self.threshold = threshold

    def plan(self, context, start_index=0):
        future = self.series[start_index + len(context) :][: self.horizon]
        return ScalingPlan(
            nodes=required_nodes(future, self.threshold),
            threshold=self.threshold,
            strategy="oracle",
        )


SERIES = np.concatenate(
    [np.full(30, 300.0), np.full(30, 900.0), np.full(30, 500.0)]
)
FAULT_RATES = {"nan": 0.05, "drop": 0.03, "planner_error": 0.1}


def chaos_loop(seed):
    """One full faulted closed loop; returns everything observable."""
    faults = FaultSchedule.random(len(SERIES), FAULT_RATES, seed=seed)
    observed, _ = corrupt_series(SERIES, faults)
    runtime = AutoscalingRuntime(
        planner=FlakyPlanner(OraclePlanner(SERIES, 8), faults),
        context_length=6,
        horizon=8,
        threshold=60.0,
        invalid_policy="impute",
    )
    allocations = runtime.run(observed)
    return faults, runtime, allocations


class TestSurvival:
    def test_run_completes_under_nan_and_planner_faults(self):
        faults, runtime, allocations = chaos_loop(seed=3)
        # The schedule actually contained both fault families ...
        counts = faults.counts()
        assert counts.get("nan", 0) + counts.get("drop", 0) > 0
        assert counts.get("planner_error", 0) > 0
        # ... the loop hit them ...
        assert runtime.invalid_observations > 0
        assert runtime.planner_errors > 0
        # ... and still produced a full, valid allocation series.
        assert len(allocations) == len(SERIES)
        assert (allocations >= 1).all()

    def test_every_degraded_interval_is_accounted_for(self):
        _, runtime, _ = chaos_loop(seed=3)
        degraded = [d for d in runtime.decisions if d.source == "degraded"]
        assert degraded, "seed 3 must produce at least one degraded decision"
        # The per-interval counter equals the intervals the degraded
        # plans covered: nothing served degraded goes unrecorded.
        assert runtime.degraded_intervals == sum(
            len(d.plan.nodes) for d in degraded
        )

    def test_degraded_decisions_visible_in_provenance(self):
        faults = FaultSchedule.random(len(SERIES), FAULT_RATES, seed=3)
        observed, _ = corrupt_series(SERIES, faults)
        runtime = AutoscalingRuntime(
            planner=FlakyPlanner(OraclePlanner(SERIES, 8), faults),
            context_length=6,
            horizon=8,
            threshold=60.0,
            invalid_policy="impute",
            record_provenance=True,
        )
        runtime.run(observed)
        decisions = [d for d in runtime.decisions if d.source == "degraded"]
        records = [r for r in runtime.provenance if r["source"] == "degraded"]
        assert len(records) == len(decisions) > 0
        assert {r["time_index"] for r in records} == {
            d.time_index for d in decisions
        }
        assert all(r["error"] for r in records)


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        faults_a, runtime_a, alloc_a = chaos_loop(seed=3)
        faults_b, runtime_b, alloc_b = chaos_loop(seed=3)
        assert faults_a == faults_b
        assert np.array_equal(alloc_a, alloc_b)
        assert [(d.time_index, d.source) for d in runtime_a.decisions] == [
            (d.time_index, d.source) for d in runtime_b.decisions
        ]

    def test_different_seed_differs(self):
        _, _, alloc_a = chaos_loop(seed=3)
        _, _, alloc_b = chaos_loop(seed=4)
        assert not np.array_equal(alloc_a, alloc_b)

    def test_chaos_run_reports_determinism(self):
        faults = FaultSchedule.random(len(SERIES), FAULT_RATES, seed=3)
        spec = LoopSpec("naive", context=6, horizon=8, faults=faults.spec)
        forecaster = SeasonalNaiveForecaster(8, season=3).fit(SERIES)
        report = chaos_run(spec, forecaster, SERIES, start_tick=0)
        assert report.deterministic is True
        assert report.degraded_intervals > 0
        assert report.decisions_by_source.get("degraded", 0) > 0
        assert report.fault_counts == faults.counts()
        assert report.telemetry_faults == corrupt_series(SERIES, faults)[1]

    def test_chaos_run_baseline_is_the_spec_without_faults(self):
        faults = FaultSchedule.parse("planner_error@10,node_crash@20")
        spec = LoopSpec("naive", context=6, horizon=8, faults=faults.spec)
        forecaster = SeasonalNaiveForecaster(8, season=3).fit(SERIES)
        report = chaos_run(spec, forecaster, SERIES, start_tick=0, check_determinism=False)
        runtime, _, _ = replace(spec, faults=None).build(forecaster, start_tick=0)
        clean, _, replay = replace(spec, faults=None).run(runtime, SERIES)
        assert report.baseline_node_steps == clean.total_nodes
        assert report.baseline_violation_rate == replay.violation_rate
        assert report.deterministic is None and report.node_failures == 1


class TestChaosCLI:
    ARGS = [
        "chaos", "--trace", "alibaba", "--days", "7", "--model", "naive",
        "--context", "144", "--horizon", "36", "--epochs", "1",
    ]

    def test_chaos_command_survives_and_reports(self, capsys):
        code = main(self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos report" in out
        assert "degraded intervals" in out
        assert "bit-identical" in out

    def test_explicit_fault_spec(self, capsys):
        code = main(self.ARGS + ["--faults", "nan@5,planner_error@150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "planner faults hit  : 2" in out  # 1 + 1 retry

    def test_evaluate_with_faults_flag(self, capsys):
        code = main([
            "evaluate", "--trace", "alibaba", "--days", "7", "--model",
            "naive", "--context", "144", "--horizon", "36", "--epochs", "1",
            "--faults", "nan@5,spike@20:8,planner_error@150,node_crash@30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "invalid observations: 1" in out
        assert "1 crashes" in out
