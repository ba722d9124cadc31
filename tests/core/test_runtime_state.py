"""The checkpoint holds what the loop reads back; every decision takes one path."""

import dataclasses
import json

import numpy as np

from repro.core import AutoscalingRuntime, ScalingPlan
from repro.core.runtime import RuntimeState
from repro.core.plan import required_nodes
from repro.obs import MetricsRegistry, using_registry
from repro.obs.sinks import InMemorySink


class RecordedPlanner:
    """Deterministic planner stamping everything a record can carry."""

    name = "quantile-double"

    def __init__(self, horizon=4, fail_at=()):
        self.horizon = horizon
        self.fail_at = set(fail_at)

    def plan(self, context, start_index=0):
        if start_index in self.fail_at:
            raise RuntimeError("boom")
        base = float(np.mean(context))
        values = np.vstack([
            np.linspace(base * f, base * f + span, self.horizon)
            for f, span in ((0.8, 20.0), (1.0, 30.0), (1.25, 45.0))
        ])
        levels = np.where(np.arange(self.horizon) < self.horizon // 2, 0.9, 0.7)
        plan = ScalingPlan(
            nodes=required_nodes(values[-1], 60.0), threshold=60.0,
            strategy=self.name, quantile_levels=levels,
        )
        plan.metadata.update(
            forecast_levels=np.array([0.1, 0.5, 0.9]), forecast_values=values,
            bound_workload=values[-1], uncertainty=values[-1] - values[0],
            ramp_clipped_steps=2, model="DoubleForecaster",
            policy="adaptive-0.7/0.9",
        )
        return plan


class TestStateIsFlatInUptime:
    # Whole-number workloads in [200, 800): every repr is five characters,
    # so the size comparison is about structure, not about float digits.
    SERIES = np.random.default_rng(22).integers(200, 800, size=3000).astype(float)

    def _loop(self):
        return AutoscalingRuntime(
            RecordedPlanner(horizon=36), context_length=72, horizon=36,
            threshold=60.0, replan_every=12, start_tick=1000,
            record_provenance=True,
        )

    def test_state_dict_does_not_grow_with_ticks_served(self):
        runtime = self._loop()
        runtime.run(self.SERIES[:300])
        early = len(json.dumps(runtime.state_dict()))
        runtime.run(self.SERIES[300:])
        late = len(json.dumps(runtime.state_dict()))
        assert len(runtime.decisions) > 200 and len(runtime.provenance) > 200
        assert abs(late - early) < 0.01 * early

    def test_state_dict_is_exactly_the_state_fields(self):
        runtime = self._loop()
        runtime.run(self.SERIES[:100])
        names = {f.name for f in dataclasses.fields(RuntimeState)}
        assert set(runtime.state_dict()) == names
        assert "decisions" not in names and "provenance" not in names

    def test_loaded_runtime_starts_its_audit_lists_empty(self):
        runtime = self._loop()
        runtime.run(self.SERIES[:100])
        state = json.loads(json.dumps(runtime.state_dict()))
        restored = self._loop().load_state_dict(state)
        assert restored.decisions == [] and restored.provenance == []
        assert restored.state.decisions_committed == len(runtime.decisions)
        assert restored.tick == runtime.tick
        assert restored.state.history.maxlen == 72


class TestCommitParity:
    """One ``_commit`` / ``Decision.record`` emits what three builders did.

    The literals are the ``provenance`` events of the commit before this
    path was unified, captured from this exact loop.
    """

    SERIES = np.array([300.0, 340.0, 280.0, 320.0, 360.0, 310.0,
                       290.0, 330.0, 350.0, 305.0, 295.0, 315.0])
    EXPECTED = {
        "reactive-fallback": {
            "time_index": 102,
            "source": "reactive-fallback",
            "strategy": "Reactive-Max",
            "horizon": 1,
            "nodes": [6],
            "nodes_first": 6,
            "window_statistic": 340.0,
            "ramp_clipped_steps": 0,
        },
        "predictive": {
            "time_index": 104,
            "source": "predictive",
            "strategy": "quantile-double",
            "horizon": 4,
            "nodes": [7, 7, 7, 8],
            "nodes_first": 7,
            "ramp_clipped_steps": 2,
            "tau_min": 0.7,
            "tau_max": 0.9,
            "bound_max": 432.5,
            "bound_total": 1640.0,
            "uncertainty_mean": 152.0,
            "uncertainty_max": 164.5,
            "model": "DoubleForecaster",
            "policy": "adaptive-0.7/0.9",
        },
        "degraded": {
            "time_index": 108,
            "source": "degraded",
            "strategy": "Reactive-Max",
            "horizon": 4,
            "nodes": [6, 6, 6, 6],
            "nodes_first": 6,
            "window_statistic": 360.0,
            "error": "RuntimeError",
            "ramp_clipped_steps": 0,
        },
    }

    def _run(self):
        sink = InMemorySink()
        with using_registry(MetricsRegistry(sinks=[sink])) as registry:
            runtime = AutoscalingRuntime(
                RecordedPlanner(fail_at={104}), context_length=4, horizon=4,
                threshold=60.0, start_tick=100, record_provenance=True,
                max_plan_retries=0,
            )
            runtime.run(self.SERIES)
            counters = registry.snapshot()["counters"]
        events = [r for r in sink.records if r.get("kind") == "provenance"]
        return runtime, events, counters

    def test_emitted_events_match_the_captured_records(self):
        runtime, events, _ = self._run()
        by_tick = {event["time_index"]: event for event in events}
        for source, expected in self.EXPECTED.items():
            event = by_tick[expected["time_index"]]
            assert event["name"] == "runtime.decision"
            envelope = ("kind", "name", "labels", "ts")
            payload = {k: v for k, v in event.items() if k not in envelope}
            assert payload == expected, source
            # Key order too: a JSONL diff against the old stream is empty.
            assert list(payload) == list(expected), source

    def test_kept_records_are_the_emitted_ones_and_every_commit_is_counted(self):
        runtime, events, counters = self._run()
        assert len(events) == len(runtime.provenance) == len(runtime.decisions)
        for kept, event in zip(runtime.provenance, events):
            assert kept == {k: event[k] for k in kept}
        sources = [d.source for d in runtime.decisions]
        assert sources == ["reactive-fallback"] * 4 + ["predictive", "degraded"]
        for source in set(sources):
            key = f"runtime.decisions{{source={source}}}"
            assert counters[key] == sources.count(source)
        assert runtime.state.decisions_committed == len(sources)
