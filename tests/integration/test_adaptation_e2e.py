"""Acceptance test for the drift→adaptation loop (ISSUE: close the loop).

A real MLP forecaster is trained on a synthetic seasonal workload, then
served against a regime-shifted continuation.  With an AdaptationManager
attached, the loop must — with no human input — detect drift, warm-refit
a candidate, shadow it, promote it, and commit it; the promoted model's
rolling wQL must beat the stale incumbent's over the post-shift tail.
A checkpoint taken mid-shadow must restore bit-identically, an injected
bad candidate must be rolled back by the guard, and a warm-started refit
must converge in no more than half the epochs of a cold fit on the
shifted trace.

The seasonal-naive family cannot drive this scenario: it forecasts from
its recent *context*, so it self-adapts to any level shift and its
residuals never drift.  A trained model with frozen weights (the MLP)
is what goes stale — exactly the paper's online-staleness story.
"""

import copy
import json

import numpy as np
import pytest

from repro.adaptation import SHADOWING, AdaptationManager
from repro.adaptation.promotion import IDLE, PromotionPolicy
from repro.core import AutoscalingRuntime
from repro.core.autoscaler import RobustPredictiveAutoscaler
from repro.forecast.mlp import MLPForecaster
from repro.forecast.neural import TrainingConfig
from repro.obs import AlertEngine, ModelHealthMonitor, parse_rule
from repro.service import restore_from_checkpoint, save_checkpoint

from tests.adaptation.doubles import BadForecaster, drive, make_runtime
from tests.adaptation.doubles import FakeForecaster

CTX, HOR, SEASON = 36, 12, 24
TRAIN_STEPS = 400
STREAM_STEPS = 240
THRESHOLD = 100.0
CHECKPOINT_SHADOW_TICKS = 12


def seasonal(t, level, amplitude):
    return level + amplitude * (1.0 + np.sin(2.0 * np.pi * t / SEASON))


def make_traces():
    """Training regime and a strongly shifted serving continuation."""
    rng = np.random.default_rng(42)
    train = seasonal(np.arange(TRAIN_STEPS), 40.0, 30.0) + rng.normal(
        0, 2, TRAIN_STEPS
    )
    stream_t = np.arange(TRAIN_STEPS, TRAIN_STEPS + STREAM_STEPS)
    stream = seasonal(stream_t, 140.0, 90.0) + rng.normal(0, 2, STREAM_STEPS)
    return train, stream


def build_loop(forecaster, train):
    """Runtime + manager wired exactly like ``serve --adapt`` does."""
    planner = RobustPredictiveAutoscaler(forecaster, threshold=THRESHOLD)
    monitor = ModelHealthMonitor(
        window=24, alerts=AlertEngine([parse_rule("drift_events > 0")])
    )
    runtime = AutoscalingRuntime(
        planner=planner,
        context_length=CTX,
        horizon=HOR,
        threshold=THRESHOLD,
        replan_every=HOR,
        start_tick=TRAIN_STEPS,
        monitor=monitor,
        record_provenance=True,
    )
    manager = AdaptationManager(
        runtime,
        policy=PromotionPolicy(
            wql_ratio=0.95,
            calibration_slack=0.5,
            soak_windows=2,
            guard_windows=2,
        ),
        shadow_window=200,
        cooldown=24,
    )
    for value in train[-CTX:]:
        runtime.state.history.append(float(value))
        manager.history.append(float(value))
    return runtime, manager, planner


@pytest.fixture(scope="module")
def base_forecaster():
    train, _ = make_traces()
    config = TrainingConfig(epochs=30, seed=0, patience=4)
    model = MLPForecaster(CTX, HOR, hidden_size=32, config=config)
    model.fit(train, start_index=0)
    return model


@pytest.fixture(scope="module")
def adapted(base_forecaster, tmp_path_factory):
    """One full uninterrupted run, checkpointed mid-shadow on the side."""
    train, stream = make_traces()
    runtime, manager, planner = build_loop(
        copy.deepcopy(base_forecaster), train
    )
    checkpoint_dir = tmp_path_factory.mktemp("adaptation") / "ckpt"
    checkpoint_position = None
    results = []
    for position, value in enumerate(stream):
        result = runtime.step(float(value))
        manager.on_tick(result.tick, result.observed, result.planned)
        results.append(result)
        if (
            checkpoint_position is None
            and manager.state == SHADOWING
            and manager.status()["shadow_ticks"] == CHECKPOINT_SHADOW_TICKS
        ):
            save_checkpoint(
                checkpoint_dir,
                runtime=runtime,
                planner=planner,
                config={},
                source_position=position + 1,
                adaptation=manager,
            )
            checkpoint_position = position + 1
    return {
        "train": train,
        "stream": stream,
        "runtime": runtime,
        "manager": manager,
        "results": results,
        "checkpoint_dir": checkpoint_dir,
        "checkpoint_position": checkpoint_position,
    }


class TestDriftToPromotion:
    def test_alert_triggers_warm_refit_without_human_input(self, adapted):
        manager = adapted["manager"]
        refits = [e for e in manager.events if e["action"] == "refit"]
        assert refits, "the drift alert must trigger a refit"
        assert refits[0]["reason"].startswith("alert: drift_events")
        assert refits[0]["strategy"] == "warm"
        assert refits[0]["mode"] == "warm"

    def test_candidate_promoted_and_committed(self, adapted):
        manager = adapted["manager"]
        actions = [e["action"] for e in manager.events]
        assert "promote" in actions
        assert "commit" in actions
        assert manager.promotions >= 1
        assert manager.rollbacks == 0
        assert manager.state == IDLE

    def test_promoted_model_is_a_warm_refit_of_the_incumbent(self, adapted):
        live = adapted["runtime"].planner.forecaster
        assert live.fits_completed == 2
        modes = {record["mode"] for record in live.history}
        assert modes == {"cold", "warm"}

    def test_promoted_model_beats_stale_incumbent_rolling_wql(self, adapted):
        manager, runtime = adapted["manager"], adapted["runtime"]
        promote_tick = [
            e for e in manager.events if e["action"] == "promote"
        ][0]["tick"]
        windows = runtime.monitor.windows
        stale = [w.mean_wql for w in windows if w.end_index <= promote_tick]
        promoted = [
            w.mean_wql for w in windows if w.start_index > promote_tick
        ]
        assert stale and promoted
        assert np.mean(promoted) < 0.9 * np.mean(stale)

    def test_promotion_recorded_in_provenance(self, adapted):
        provenance = adapted["runtime"].provenance
        promoted = [r for r in provenance if r["source"] == "promoted"]
        assert len(promoted) == 1
        assert promoted[0]["mode"] == "warm"
        assert promoted[0]["strategy"] == "MLPForecaster"


class TestCheckpointMidShadow:
    def test_restore_is_bit_identical(self, adapted, base_forecaster):
        assert adapted["checkpoint_position"] is not None
        train, stream = adapted["train"], adapted["stream"]
        runtime, manager, planner = build_loop(
            copy.deepcopy(base_forecaster), train
        )
        position = restore_from_checkpoint(
            adapted["checkpoint_dir"],
            runtime=runtime,
            planner=planner,
            adaptation=manager,
        )
        assert position == adapted["checkpoint_position"]
        assert manager.state == SHADOWING

        restored = []
        for value in stream[position:]:
            result = runtime.step(float(value))
            manager.on_tick(result.tick, result.observed, result.planned)
            restored.append(result)

        original_tail = adapted["results"][position:]
        assert [r.target_nodes for r in restored] == [
            r.target_nodes for r in original_tail
        ]
        assert [r.source for r in restored] == [
            r.source for r in original_tail
        ]
        # The whole adaptation state machine converged identically -
        # models included: they are records of arrays, equal entry by entry.
        original_state = adapted["manager"].state_dict()
        assert manager.state_dict() == original_state
        original_live = adapted["runtime"].planner.forecaster
        restored_live = runtime.planner.forecaster
        assert restored_live.state_dict() == original_live.state_dict()
        for key, value in original_live.network.state_dict().items():
            np.testing.assert_array_equal(
                value, restored_live.network.state_dict()[key]
            )
        context = stream[-CTX:]
        np.testing.assert_array_equal(
            original_live.predict(context, start_index=0).values,
            restored_live.predict(context, start_index=0).values,
        )
        # And the checkpoint itself is valid JSON end to end.
        json.dumps(original_state)


class TestKilledMidShadowAndMidGuard:
    """The restored side starts from an *unfitted* forecaster: everything a
    model knows comes out of the checkpoint.  ``naive`` has no warm start,
    so its candidate is a cold refit of a clone - the path that, before
    the state protocol, only the pickled blob carried across a restart."""

    REFIT_AT, KILL_SHADOW, PROMOTE_AT, KILL_GUARD = 60, 70, 80, 90

    @staticmethod
    def skeleton(model):
        from repro.forecast import DeepARForecaster, SeasonalNaiveForecaster

        config = TrainingConfig(epochs=2, seed=0, patience=0, window_stride=4)
        if model == "mlp":
            return MLPForecaster(CTX, HOR, hidden_size=16, config=config)
        if model == "deepar":
            return DeepARForecaster(CTX, HOR, hidden_size=8, num_samples=20, config=config)
        return SeasonalNaiveForecaster(HOR, season=SEASON)

    def loop(self, forecaster, train):
        runtime, manager, planner = build_loop(forecaster, train)
        manager.auto_refit = False  # the test drives the transitions itself
        manager.policy = PromotionPolicy(soak_windows=99, guard_windows=2)
        return runtime, manager

    def serve(self, runtime, manager, stream, start, kill_at=None, ckpt=None):
        for position in range(start, len(stream)):
            if position == self.REFIT_AT:
                manager.refit(reason="test")
            if position == self.PROMOTE_AT:
                manager.promote(reason="test")
            if position == kill_at:
                save_checkpoint(ckpt, runtime=runtime, adaptation=manager,
                                source_position=position)
                return
            result = runtime.step(float(stream[position]))
            manager.on_tick(result.tick, result.observed, result.planned)

    @pytest.mark.parametrize("model", ["mlp", "deepar", "naive"])
    def test_restored_loop_continues_bit_identically(self, model, tmp_path):
        train, stream = make_traces()
        fitted = self.skeleton(model).fit(train)
        full_runtime, full = self.loop(copy.deepcopy(fitted), train)
        self.serve(full_runtime, full, stream, 0)
        assert [e["action"] for e in full.events] == ["refit", "promote", "commit"]
        assert full.events[0]["mode"] == ("cold" if model == "naive" else "warm")

        for kill_at, phase in ((self.KILL_SHADOW, SHADOWING), (self.KILL_GUARD, "guarding")):
            ckpt = tmp_path / phase
            victim_runtime, victim = self.loop(copy.deepcopy(fitted), train)
            self.serve(victim_runtime, victim, stream, 0, kill_at=kill_at, ckpt=ckpt)
            assert victim.state == phase
            assert [entry.name for entry in ckpt.iterdir()] == ["state.json"]

            runtime, manager = self.loop(self.skeleton(model), train)
            position = restore_from_checkpoint(ckpt, runtime=runtime, adaptation=manager)
            assert position == kill_at and manager.state == phase
            self.serve(runtime, manager, stream, position)

            assert manager.events == full.events
            assert [d.record() for d in runtime.decisions] == [
                d.record() for d in full_runtime.decisions[-len(runtime.decisions):]
            ]
            assert runtime.monitor.windows == full_runtime.monitor.windows
            assert runtime.state_dict() == full_runtime.state_dict()
            assert manager.state_dict() == full.state_dict()
            assert (
                runtime.planner.forecaster.state_dict()
                == full_runtime.planner.forecaster.state_dict()
            )


class TestRollback:
    def test_rollback_fires_on_injected_bad_candidate(self):
        # Deterministic doubles keep this fast; the guard semantics are
        # identical to the MLP path.  Promotion lands on a window
        # boundary so the first closing window judges only the bad
        # candidate, breaches, and rolls the swap back.
        runtime = make_runtime(
            FakeForecaster().fit(np.full(20, 100.0)),
            rules=("mean_wql > 0.5",),
            record_provenance=True,
        )
        manager = AdaptationManager(
            runtime,
            policy=PromotionPolicy(soak_windows=1, guard_windows=3),
            auto_refit=False,
            cooldown=5,
        )
        drive(runtime, manager, np.full(38, 100.0))
        incumbent = runtime.planner.forecaster
        manager.refit(reason="test")
        manager.machine.candidate = BadForecaster()
        manager.promote(reason="inject bad candidate")
        drive(runtime, manager, np.full(15, 100.0))
        assert manager.rollbacks == 1
        assert runtime.planner.forecaster is incumbent
        rolled_back = [
            r for r in runtime.provenance if r["source"] == "rolled_back"
        ]
        assert len(rolled_back) == 1


class TestWarmStartConvergence:
    def test_warm_refit_halves_the_epochs_of_a_cold_fit(self):
        # A level shift that stays inside the scaler's fitted range:
        # the warm network only adjusts its output mapping, so early
        # stopping kicks in far sooner than training from scratch.
        rng = np.random.default_rng(42)
        train = seasonal(np.arange(TRAIN_STEPS), 40.0, 30.0) + rng.normal(
            0, 2, TRAIN_STEPS
        )
        shifted_t = np.arange(TRAIN_STEPS, TRAIN_STEPS + 360)
        shifted = seasonal(shifted_t, 55.0, 20.0) + rng.normal(0, 2, 360)

        config = TrainingConfig(epochs=60, seed=0, patience=4)
        base = MLPForecaster(CTX, HOR, hidden_size=32, config=config)
        base.fit(train, start_index=0)

        warm = copy.deepcopy(base)
        warm.fit(shifted, warm_start=True, start_index=TRAIN_STEPS)
        warm_epochs = len(
            [r for r in warm.history if r["mode"] == "warm"]
        )

        cold = MLPForecaster(CTX, HOR, hidden_size=32, config=config)
        cold.fit(shifted, start_index=TRAIN_STEPS)
        cold_epochs = len(cold.history)

        assert warm_epochs * 2 <= cold_epochs, (
            f"warm refit took {warm_epochs} epochs vs {cold_epochs} cold"
        )
