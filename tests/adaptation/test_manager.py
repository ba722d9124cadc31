"""Tests for the AdaptationManager canary state machine."""

import json

import numpy as np
import pytest

from repro.adaptation import SHADOWING, AdaptationError, AdaptationManager
from repro.adaptation.promotion import GUARDING, IDLE, PromotionPolicy
from repro.core import AutoscalingRuntime

from tests.adaptation.doubles import (
    BadForecaster,
    FakeForecaster,
    FakePlanner,
    drive,
    make_runtime,
)
from tests.forecast.test_serving_copy import build, forecast, fresh_from_saved

STABLE = 100.0
SHIFTED = 300.0


def fitted_fake(level=STABLE):
    return FakeForecaster().fit(np.full(20, level))


def make_manager(runtime, **kwargs):
    kwargs.setdefault(
        "policy",
        PromotionPolicy(
            wql_ratio=0.95, calibration_slack=1.0, soak_windows=1, guard_windows=1
        ),
    )
    kwargs.setdefault("cooldown", 5)
    return AdaptationManager(runtime, **kwargs)


class TestConstruction:
    def test_requires_a_monitor(self):
        runtime = AutoscalingRuntime(
            planner=FakePlanner(fitted_fake()),
            context_length=8,
            horizon=4,
            threshold=200.0,
        )
        with pytest.raises(ValueError, match="health monitor"):
            AdaptationManager(runtime)

    def test_validates_parameters(self):
        runtime = make_runtime(fitted_fake())
        with pytest.raises(ValueError):
            AdaptationManager(runtime, shadow_window=0)
        with pytest.raises(ValueError):
            AdaptationManager(runtime, cooldown=-1)

    def test_policy_accepts_spec_string(self):
        runtime = make_runtime(fitted_fake())
        manager = AdaptationManager(runtime, policy="soak=1 guard=0")
        assert manager.policy.soak_windows == 1
        assert manager.policy.guard_windows == 0

    def test_refuses_a_forecaster_it_could_not_checkpoint(self):
        class Stateless:
            """A forecaster without the state protocol (never fitted here)."""

        with pytest.raises(ValueError, match=r"Stateless does not implement state_dict\(\)"):
            AdaptationManager(make_runtime(Stateless()))

    def test_starts_idle(self):
        manager = make_manager(make_runtime(fitted_fake()))
        assert manager.state == IDLE
        assert manager.candidate is None


class TestRefit:
    def test_needs_enough_history(self):
        manager = make_manager(make_runtime(fitted_fake()))
        with pytest.raises(AdaptationError, match="not enough history"):
            manager.refit()

    def test_manual_refit_starts_shadowing(self):
        runtime = make_runtime(fitted_fake())
        manager = make_manager(runtime)
        drive(runtime, manager, np.full(20, STABLE))
        event = manager.refit(reason="operator")
        assert manager.state == SHADOWING
        assert manager.candidate is not None
        assert manager.candidate is not runtime.planner.forecaster
        assert manager.shadow_monitor is not None
        assert manager.refits == 1
        assert event["action"] == "refit"
        assert event["reason"] == "operator"
        # FakeForecaster has no warm_start parameter -> cold clone refit.
        assert event["mode"] == "cold"

    def test_refit_while_shadowing_requires_force(self):
        runtime = make_runtime(fitted_fake())
        manager = make_manager(runtime)
        drive(runtime, manager, np.full(20, STABLE))
        manager.refit()
        with pytest.raises(AdaptationError, match="force"):
            manager.refit()
        first_candidate = manager.candidate
        manager.refit(force=True)
        assert manager.state == SHADOWING
        assert manager.candidate is not first_candidate
        assert manager.rejections == 1
        assert manager.refits == 2

    def test_invalid_strategy_rejected(self):
        # a refit always clones the live model: no strategy is accepted
        runtime = make_runtime(fitted_fake())
        manager = make_manager(runtime)
        drive(runtime, manager, np.full(20, STABLE))
        for strategy in ("warm", "pool"):
            with pytest.raises(TypeError, match="strategy"):
                manager.refit(strategy=strategy)
        assert manager.state == IDLE and manager.refits == 0

    def test_invalid_transitions_raise(self):
        runtime = make_runtime(fitted_fake())
        manager = make_manager(runtime)
        with pytest.raises(AdaptationError):
            manager.promote()
        with pytest.raises(AdaptationError):
            manager.rollback()
        with pytest.raises(AdaptationError):
            manager.reject()


class TestPromotionFlow:
    def promote_scenario(self, **manager_kwargs):
        """Stable phase, shift, manual refit -> returns runtime+manager."""
        runtime = make_runtime(fitted_fake(), record_provenance=True)
        manager = make_manager(runtime, **manager_kwargs)
        drive(runtime, manager, np.full(30, STABLE))
        drive(runtime, manager, np.full(8, SHIFTED))  # incumbent goes stale
        manager.refit(reason="test")
        return runtime, manager

    def test_shadow_candidate_is_scored_not_actuated(self):
        runtime, manager = self.promote_scenario(
            policy=PromotionPolicy(soak_windows=9, guard_windows=1)
        )
        nodes_before = runtime.decisions[-1].plan.nodes[0]
        drive(runtime, manager, np.full(6, SHIFTED))
        assert manager.shadow_monitor.steps_observed == 6
        # Still shadowing: the live allocation is the stale incumbent's.
        assert manager.state == SHADOWING
        assert runtime.decisions[-1].plan.nodes[0] == nodes_before

    def test_candidate_promoted_then_committed(self):
        runtime, manager = self.promote_scenario()
        stale = runtime.planner.forecaster
        drive(runtime, manager, np.full(40, SHIFTED))
        # Promotion swapped the candidate in and the guard committed it.
        assert manager.promotions == 1
        assert manager.state == IDLE
        assert manager.previous is None
        assert runtime.planner.forecaster is not stale
        # The candidate was fit on a tail spanning the shift, so its
        # level tracks the new regime (the stale incumbent stays at 100).
        assert runtime.planner.forecaster.center > 200.0
        actions = [e["action"] for e in manager.events]
        assert actions.count("promote") == 1
        assert actions.count("commit") == 1
        assert actions.index("promote") < actions.index("commit")

    def test_report_renders_the_recorded_transitions_as_a_timeline(self):
        from repro.obs import (
            MetricsRegistry,
            format_model_health,
            summarize_model_health,
            summarize_records,
            using_registry,
        )
        from repro.obs.sinks import InMemorySink

        sink = InMemorySink()
        registry = MetricsRegistry(sinks=[sink])
        with using_registry(registry):
            runtime, manager = self.promote_scenario()
            drive(runtime, manager, np.full(40, SHIFTED))
            registry.flush()
        assert [e["action"] for e in manager.events] == [
            "refit", "promote", "commit"
        ]
        # Every transition reaches the report: none is a "skipped" kind.
        assert summarize_records(sink.records).unknown_kinds == {}
        health = summarize_model_health(sink.records)
        assert [
            (e["tick"], e["action"]) for e in health.adaptation
        ] == [(e["tick"], e["action"]) for e in manager.events]
        text = format_model_health(health)
        timeline = text[text.index("adaptation timeline"):].splitlines()[1:4]
        refit, promote, commit = (line.split() for line in timeline)
        tick = manager.events[0]["tick"]
        assert refit[:4] == [f"t={tick}", "refit", "FakeForecaster", "test"]
        assert promote[1:3] == ["promote", "FakeForecaster"]
        assert commit[1:3] == ["commit", "-"]
        assert "guard windows passed" in " ".join(commit)

    def test_promoted_model_drives_allocations(self):
        runtime, manager = self.promote_scenario()
        drive(runtime, manager, np.full(40, SHIFTED))
        # center 300, q0.9 = 316 -> 2 nodes at threshold 200 (stale: 1).
        assert runtime.decisions[-1].plan.nodes[0] == 2

    def test_promotion_writes_provenance(self):
        runtime, manager = self.promote_scenario()
        drive(runtime, manager, np.full(40, SHIFTED))
        promoted = [
            r for r in runtime.provenance if r["source"] == "promoted"
        ]
        assert len(promoted) == 1
        assert promoted[0]["mode"] == "cold"

    def test_reject_when_shadow_budget_expires(self):
        # Stream never shifts: the candidate ties the incumbent, which
        # the <1 wql ratio refuses, and the budget runs out.
        runtime = make_runtime(fitted_fake())
        manager = make_manager(runtime, shadow_window=15)
        drive(runtime, manager, np.full(30, STABLE))
        manager.refit()
        drive(runtime, manager, np.full(20, STABLE))
        assert manager.state == IDLE
        assert manager.rejections == 1
        assert manager.promotions == 0
        reject = [e for e in manager.events if e["action"] == "reject"][0]
        assert "budget" in reject["reason"]


class TestGuardAndRollback:
    def rollback_scenario(self):
        """Promote a good candidate at a window boundary, keep guarding."""
        runtime = make_runtime(
            fitted_fake(), rules=("mean_wql > 0.5",)
        )
        manager = make_manager(
            runtime,
            policy=PromotionPolicy(
                wql_ratio=0.95,
                calibration_slack=1.0,
                soak_windows=1,
                guard_windows=3,
            ),
            auto_refit=False,
        )
        drive(runtime, manager, np.full(30, STABLE))
        drive(runtime, manager, np.full(8, SHIFTED))
        manager.refit(reason="test")
        drive(runtime, manager, np.full(20, SHIFTED))
        assert manager.state == GUARDING
        return runtime, manager

    def test_post_promotion_breach_rolls_back(self):
        runtime, manager = self.rollback_scenario()
        promoted = runtime.planner.forecaster
        previous = manager.previous
        # A second shift the promoted model cannot track: the next fully
        # post-promotion window breaches mean_wql and the guard fires.
        drive(runtime, manager, np.full(25, 900.0))
        assert manager.rollbacks == 1
        assert manager.state == IDLE
        assert runtime.planner.forecaster is previous
        assert runtime.planner.forecaster is not promoted
        rollback = [e for e in manager.events if e["action"] == "rollback"][0]
        assert rollback["reason"].startswith("alert:")

    def test_quiet_guard_commits(self):
        runtime, manager = self.rollback_scenario()
        promoted = runtime.planner.forecaster
        drive(runtime, manager, np.full(30, SHIFTED))
        assert manager.state == IDLE
        assert manager.rollbacks == 0
        assert manager.previous is None
        assert runtime.planner.forecaster is promoted

    def test_straddling_window_alert_does_not_rollback(self):
        # Promote mid-window with a bad candidate: the first closing
        # window straddles the promotion (it carries incumbent
        # residuals too) so its alert must NOT trigger a rollback.
        runtime = make_runtime(
            fitted_fake(), rules=("mean_wql > 0.5",)
        )
        manager = make_manager(
            runtime,
            policy=PromotionPolicy(soak_windows=1, guard_windows=1),
            auto_refit=False,
        )
        drive(runtime, manager, np.full(33, STABLE))  # mid-window (10s)
        manager.refit(reason="test")
        manager.machine.candidate = BadForecaster()
        manager.promote(reason="test")
        drive(runtime, manager, np.full(6, STABLE))
        straddling = [a for a in runtime.monitor.alerts.alerts]
        assert straddling, "the straddling window must breach"
        assert manager.rollbacks == 0

    def test_bad_candidate_promoted_at_boundary_rolls_back(self):
        # Promotion lands exactly on a window boundary, so the very
        # first closing window is fully post-promotion and its breach
        # (the engine was calm before) rolls the bad candidate back.
        runtime = make_runtime(
            fitted_fake(), rules=("mean_wql > 0.5",)
        )
        manager = make_manager(
            runtime,
            policy=PromotionPolicy(soak_windows=1, guard_windows=3),
            auto_refit=False,
        )
        drive(runtime, manager, np.full(38, STABLE))  # windows 8-17..28-37
        incumbent = runtime.planner.forecaster
        manager.refit(reason="test")
        manager.machine.candidate = BadForecaster()
        manager.promote(reason="inject bad candidate")
        drive(runtime, manager, np.full(15, STABLE))
        assert manager.rollbacks == 1
        assert manager.state == IDLE
        assert runtime.planner.forecaster is incumbent


class TestAutoRefit:
    def test_alert_triggers_refit(self):
        runtime = make_runtime(fitted_fake(), rules=("mean_wql > 0.5",))
        manager = make_manager(runtime, auto_refit=True)
        drive(runtime, manager, np.full(30, STABLE))
        assert manager.refits == 0
        drive(runtime, manager, np.full(15, SHIFTED))
        assert manager.refits == 1
        assert manager.state == SHADOWING
        refit = [e for e in manager.events if e["action"] == "refit"][0]
        assert refit["reason"].startswith("alert:")

    def test_auto_refit_can_be_disabled(self):
        runtime = make_runtime(fitted_fake(), rules=("mean_wql > 0.5",))
        manager = make_manager(runtime, auto_refit=False)
        drive(runtime, manager, np.full(45, SHIFTED))
        assert len(runtime.monitor.alerts.alerts) >= 1
        assert manager.refits == 0

    def test_refit_failure_is_an_event_not_a_crash(self):
        # The history buffer is too small to ever satisfy a refit, so
        # the alert-driven refit fails — logged, not raised.
        runtime = make_runtime(fitted_fake(STABLE), rules=("mean_wql > 0.5",))
        manager = make_manager(runtime, history_size=8)
        drive(runtime, manager, np.full(18, SHIFTED))
        failures = [
            e for e in manager.events if e["action"] == "refit_failed"
        ]
        assert failures
        assert "not enough history" in failures[0]["reason"]
        assert manager.state == IDLE

    def test_cooldown_suppresses_alert_refits(self):
        runtime = make_runtime(fitted_fake(), rules=("mean_wql > 0.5",))
        manager = make_manager(runtime, shadow_window=12, cooldown=1000)
        drive(runtime, manager, np.full(30, STABLE))
        drive(runtime, manager, np.full(15, SHIFTED))
        assert manager.refits == 1
        # Budget expires -> reject -> cooldown.  The rule re-fires on
        # later windows (re-armed by the candidate evaluation gap) but
        # the cooldown must swallow it.
        drive(runtime, manager, np.full(40, SHIFTED))
        assert manager.state == IDLE
        refits_after_reject = manager.refits
        drive(runtime, manager, np.full(40, 900.0))
        assert manager.refits == refits_after_reject


class TestStatusAndCheckpoint:
    def shadowing_manager(self):
        runtime = make_runtime(fitted_fake(), record_provenance=True)
        manager = make_manager(runtime)
        drive(runtime, manager, np.full(30, STABLE))
        drive(runtime, manager, np.full(8, SHIFTED))
        manager.refit(reason="test")
        drive(runtime, manager, np.full(4, SHIFTED))
        assert manager.state == SHADOWING
        return runtime, manager

    def test_status_is_json_safe(self):
        _, manager = self.shadowing_manager()
        status = json.loads(json.dumps(manager.status()))
        assert status["state"] == SHADOWING
        assert status["candidate"] == "FakeForecaster"
        assert status["refits"] == 1
        assert status["shadow_ticks"] == 4

    def test_state_dict_round_trips_mid_shadow(self):
        runtime, manager = self.shadowing_manager()
        blob = json.dumps(manager.state_dict())

        fresh_runtime = make_runtime(fitted_fake(), record_provenance=True)
        fresh_runtime.load_state_dict(runtime.state_dict())
        fresh_runtime.monitor.load_state_dict(runtime.monitor.state_dict())
        fresh = make_manager(fresh_runtime)
        fresh.load_state_dict(json.loads(blob))

        assert fresh.state == SHADOWING
        assert fresh.candidate.center == manager.candidate.center
        # Continue both loops in lockstep: decisions and adaptation
        # events must stay bit-identical.
        tail = np.full(40, SHIFTED)
        original = drive(runtime, manager, tail)
        restored = drive(fresh_runtime, fresh, tail)
        assert [r.target_nodes for r in original] == [
            r.target_nodes for r in restored
        ]
        assert manager.events == fresh.events
        assert manager.state == fresh.state == IDLE
        assert manager.promotions == fresh.promotions == 1
        assert (
            runtime.planner.forecaster.center
            == fresh_runtime.planner.forecaster.center
        )

    def test_state_dict_is_a_fixed_point_mid_shadow(self):
        runtime, manager = self.shadowing_manager()
        state = manager.state_dict()
        # The candidate's forecast grid rides as raw-byte records.
        for key in ("shadow_levels", "shadow_values"):
            assert isinstance(state[key]["__ndarray__"], str)

        fresh_runtime = make_runtime(fitted_fake(), record_provenance=True)
        fresh_runtime.load_state_dict(runtime.state_dict())
        fresh_runtime.monitor.load_state_dict(runtime.monitor.state_dict())
        fresh = make_manager(fresh_runtime)
        fresh.load_state_dict(json.loads(json.dumps(state)))

        assert fresh.state_dict() == state
        for mine, theirs in (
            (fresh.shadow_levels, manager.shadow_levels),
            (fresh.shadow_values, manager.shadow_values),
        ):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()

    def test_damaged_shadow_grid_is_rejected_before_restore(self, tmp_path):
        from repro.service import restore_from_checkpoint, save_checkpoint

        runtime, manager = self.shadowing_manager()
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime,
                               adaptation=manager, source_position=42)
        state = json.loads((ckpt / "state.json").read_text())
        state["adaptation"]["shadow_values"]["shape"] = [99, 99]
        (ckpt / "state.json").write_text(json.dumps(state))

        fresh_runtime = make_runtime(fitted_fake(), record_provenance=True)
        fresh = make_manager(fresh_runtime)
        with pytest.raises(ValueError, match=r"adaptation\.shadow_values"):
            restore_from_checkpoint(ckpt, runtime=fresh_runtime, adaptation=fresh)
        assert fresh_runtime.tick == fresh_runtime.start_tick
        assert not fresh_runtime.decisions
        assert fresh.state == IDLE and fresh.candidate is None

    def neural_loop(self, phase, tmp_path):
        """A TFT loop checkpointed while shadowing / guarding, and a fresh one."""
        rng = np.random.default_rng(0)
        wave = lambda t, level: level + 30.0 * np.sin(t / 3.0) + rng.normal(0, 2, len(t))
        incumbent = build("tft", context=8, horizon=4).fit(wave(np.arange(60), STABLE))
        runtime = make_runtime(incumbent)
        manager = make_manager(runtime, auto_refit=False, policy=PromotionPolicy(guard_windows=9))
        drive(runtime, manager, wave(np.arange(60, 120), STABLE))
        manager.refit(reason="test")
        if phase == GUARDING:
            manager.promote(reason="test")
        assert manager.state == phase
        from repro.service import save_checkpoint

        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime, adaptation=manager)
        fresh_runtime = make_runtime(build("tft", context=8, horizon=4))
        fresh = make_manager(
            fresh_runtime, auto_refit=False, policy=PromotionPolicy(guard_windows=9)
        )
        return runtime, manager, ckpt, fresh_runtime, fresh

    @pytest.mark.parametrize("phase, role", [(SHADOWING, "candidate"), (GUARDING, "previous")])
    def test_model_records_restore_into_unfitted_skeletons(self, phase, role, tmp_path):
        from repro.service import restore_from_checkpoint

        runtime, manager, ckpt, fresh_runtime, fresh = self.neural_loop(phase, tmp_path)
        assert [entry.name for entry in ckpt.iterdir()] == ["state.json"]
        restore_from_checkpoint(ckpt, runtime=fresh_runtime, adaptation=fresh)
        assert fresh.state == phase and fresh.state_dict() == manager.state_dict()
        assert getattr(fresh, role).state_dict() == getattr(manager, role).state_dict()
        assert (
            fresh_runtime.planner.forecaster.state_dict()
            == runtime.planner.forecaster.state_dict()
        )

    @pytest.mark.parametrize("phase, role", [(SHADOWING, "candidate"), (GUARDING, "previous")])
    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda record, w: w.update(__ndarray__=w["__ndarray__"][:-12]),
             r"state\.json: field 'adaptation\.{role}\.network\.\S+'.*__ndarray__"),
            (lambda record, w: w.update(shape=[w["shape"][0], 1, w["shape"][1]]),
             r"adaptation\.{role}\.network\.\S+: expected shape"),
            (lambda record, w: record.pop("fits_completed"),
             r"adaptation\.{role}\.fits_completed: missing"),
            (lambda record, w: (record.clear(), record.update(fitted_fake().state_dict())),
             r"adaptation\.{role}\.center: not an entry"),
        ],
        ids=["truncated-base64", "wrong-shape", "missing-entry", "another-family"],
    )
    def test_damaged_model_record_is_rejected_before_restore(
        self, phase, role, damage, match, tmp_path
    ):
        from repro.service import restore_from_checkpoint

        _, _, ckpt, fresh_runtime, fresh = self.neural_loop(phase, tmp_path)
        state = json.loads((ckpt / "state.json").read_text())
        record = state["adaptation"][role]
        damage(record, next(v for k, v in record.items() if k.endswith(".weight")))
        (ckpt / "state.json").write_text(json.dumps(state))

        monitor_before = json.dumps(fresh_runtime.monitor.state_dict())
        with pytest.raises(ValueError, match=match.format(role=role)):
            restore_from_checkpoint(ckpt, runtime=fresh_runtime, adaptation=fresh)
        assert fresh_runtime.tick == fresh_runtime.start_tick
        assert json.dumps(fresh_runtime.monitor.state_dict()) == monitor_before
        assert fresh.state == IDLE and fresh.candidate is None and fresh.previous is None
        assert not fresh.history and not fresh.events
        assert fresh_runtime.planner.forecaster.network is None  # the live load is last

    def test_version_mismatch_rejected(self):
        _, manager = self.shadowing_manager()
        state = manager.state_dict()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            manager.load_state_dict(state)

    def test_a_version_4_state_is_refused_and_leaves_the_loop_untouched(self, tmp_path):
        """Version 4 named each model's origin (``live_origin`` ...); version 5
        holds only clones of the configured forecaster and refuses it whole."""
        from repro.service import restore_from_checkpoint, save_checkpoint

        runtime, manager = self.shadowing_manager()
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime, adaptation=manager)
        state = json.loads((ckpt / "state.json").read_text())
        state["adaptation"].update(
            version=4, live_origin="pool:wide", candidate_origin=None, previous_origin=None
        )
        (ckpt / "state.json").write_text(json.dumps(state))

        fresh_runtime = make_runtime(fitted_fake(level=SHIFTED), record_provenance=True)
        fresh = make_manager(fresh_runtime)
        configured = fresh_runtime.planner.forecaster
        for restore in (
            lambda: fresh.load_state_dict(state["adaptation"], model=state["model"]),
            lambda: restore_from_checkpoint(ckpt, runtime=fresh_runtime, adaptation=fresh),
        ):
            with pytest.raises(ValueError, match="unsupported adaptation state version 4"):
                restore()
            assert fresh_runtime.planner.forecaster is configured
            assert configured.center == SHIFTED
            assert fresh_runtime.tick == fresh_runtime.start_tick
            assert not fresh_runtime.decisions
            assert fresh.state == IDLE and fresh.candidate is None
            assert not fresh.history and not fresh.events


class TestServingCopyAcrossSwaps:
    """DeepAR and TFT train and serve one float32 network (docs/nn.md,
    Precision).  Through refit -> promote -> rollback the live model must
    always predict from *its own current* weights - the oracle is a fresh
    forecaster ``load``-ed from the ``save``-d file - and every checkpointed
    model is that one network's arrays, nothing beside them."""

    @pytest.mark.parametrize("kind", ["deepar", "tft"])
    def test_refit_promote_rollback_never_serve_stale_weights(self, kind, tmp_path):
        rng = np.random.default_rng(0)

        def wave(t, level):
            return level + 30.0 * np.sin(t / 3.0) + rng.normal(0, 2, len(t))

        incumbent = build(kind, context=8, horizon=4).fit(wave(np.arange(60), STABLE))
        runtime = make_runtime(incumbent)
        manager = make_manager(runtime, auto_refit=False)
        drive(runtime, manager, wave(np.arange(60, 90), STABLE))
        drive(runtime, manager, wave(np.arange(90, 120), SHIFTED))
        assert not hasattr(incumbent, "_serving")  # it has served the loop from its one network
        context = wave(np.arange(40, 48), SHIFTED)
        incumbent_forecast = forecast(incumbent, context)

        manager.refit(reason="test")  # deepcopy(incumbent), then a warm fit
        candidate = manager.candidate
        assert candidate is not incumbent and candidate.fits_completed == 2
        assert np.array_equal(forecast(incumbent, context), incumbent_forecast)
        candidate_forecast = forecast(candidate, context)
        assert not np.array_equal(candidate_forecast, incumbent_forecast)
        assert np.array_equal(
            candidate_forecast, forecast(fresh_from_saved(candidate, tmp_path), context)
        )

        drive(runtime, manager, wave(np.arange(120, 124), SHIFTED))  # shadow predicts
        if manager.state == SHADOWING:
            manager.promote(reason="test")
        assert manager.state == GUARDING
        assert runtime.planner.forecaster is candidate
        assert np.array_equal(forecast(runtime.planner.forecaster, context), candidate_forecast)

        # mid-guard every checkpointed model is its network's float32 arrays, and
        # restores to serve its weights
        state = json.loads(json.dumps(manager.state_dict()))
        live_state = json.loads(json.dumps(candidate.state_dict()))
        assert "live_model" not in state  # the checkpoint writes the live model, once
        for saved, original in ((live_state, candidate), (state["previous"], incumbent)):
            weights = [key for key in saved if key.startswith("network.")]
            assert len(weights) == len(list(original.network.parameters()))
            assert {saved[key]["dtype"] for key in weights} == {"<f4"}
            restored = build(kind, context=8, horizon=4).load_state_dict(saved)
            assert np.array_equal(forecast(restored, context), forecast(original, context))

        manager.rollback(reason="test")
        assert runtime.planner.forecaster is incumbent
        assert np.array_equal(forecast(incumbent, context), incumbent_forecast)
        assert np.array_equal(
            incumbent_forecast, forecast(fresh_from_saved(incumbent, tmp_path), context)
        )

    def test_state_blob_does_not_grow_with_serving(self):
        """``adaptation.state_blob_bytes``: same bytes before and after the live
        model's first predict (TFT: no sampler rng moves between the two)."""
        series = STABLE + 30.0 * np.sin(np.arange(60) / 3.0)
        live = build("tft", context=8, horizon=4).fit(series)
        before = json.dumps(live.state_dict())
        live.predict(series[-8:])
        assert json.dumps(live.state_dict()) == before
