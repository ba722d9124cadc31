"""Checkpoint/restore: kill the loop, resume it, demand bit-identity."""

import json

import numpy as np
import pytest

from repro.core import AutoscalingRuntime, ScalingPlan
from repro.core.plan import required_nodes
from repro.faults import FaultSchedule, FlakyPlanner, corrupt_series
from repro.obs import AlertEngine, ModelHealthMonitor, default_rules
from repro.service import load_checkpoint, restore_from_checkpoint, save_checkpoint
from repro.service.checkpoint import CHECKPOINT_VERSION
from tests.helpers import decision_states

SERIES = np.abs(np.random.default_rng(11).normal(400, 120, size=60))
START_TICK = 200


class NoisyForecaster:
    """Stand-in stochastic forecaster: its whole state is the sampler rng."""

    def __init__(self, seed=0):
        self._sample_rng = np.random.default_rng(seed)

    def state_dict(self):
        return {"sampler": self._sample_rng.bit_generator.state}

    def load_state_dict(self, state):
        self._sample_rng.bit_generator.state = state["sampler"]
        return self


class StochasticPlanner:
    """Planner whose decisions consume sampler randomness (test double).

    Each plan draws from the forecaster's sampler rng, so two runs only
    produce identical decision streams if the rng state round-trips
    bit-exactly through the checkpoint.
    """

    name = "stochastic"

    def __init__(self, horizon, threshold, seed=0):
        self.forecaster = NoisyForecaster(seed)
        self.horizon = horizon
        self.threshold = threshold

    def plan(self, context, start_index=0):
        base = float(np.mean(context))
        noise = self.forecaster._sample_rng.normal(0, 0.1 * base, self.horizon)
        levels = np.array([0.1, 0.5, 0.9])
        values = np.vstack([
            np.maximum(base * f + noise, 0.0) for f in (0.8, 1.0, 1.2)
        ])
        return ScalingPlan(
            nodes=required_nodes(values[-1], self.threshold),
            threshold=self.threshold,
            strategy=self.name,
            metadata={"forecast_levels": levels, "forecast_values": values},
        )


def make_loop(*, faults=None, monitor=True, seed=0, context=8, horizon=6):
    planner = StochasticPlanner(horizon, 60.0, seed=seed)
    if faults is not None:
        planner = FlakyPlanner(planner, faults, time_offset=START_TICK)
    runtime = AutoscalingRuntime(
        planner=planner,
        context_length=context,
        horizon=horizon,
        threshold=60.0,
        start_tick=START_TICK,
        invalid_policy="impute",
        monitor=(
            ModelHealthMonitor(
                window=10, alerts=AlertEngine(default_rules(nominal_level=0.9))
            )
            if monitor
            else None
        ),
    )
    return runtime, planner


MLP_TRAIN = np.abs(np.random.default_rng(3).normal(300, 60, size=120))


def mlp_loop(fit, monitor=False):
    """A real forecaster behind the loop: (forecaster, planner, runtime)."""
    from repro.core import FixedQuantilePolicy, RobustPredictiveAutoscaler
    from repro.forecast import MLPForecaster, TrainingConfig

    forecaster = MLPForecaster(
        12, 4, config=TrainingConfig(epochs=1, window_stride=4, seed=0)
    )
    if fit:
        forecaster.fit(MLP_TRAIN)
    planner = RobustPredictiveAutoscaler(forecaster, 60.0, FixedQuantilePolicy(0.9))
    runtime = AutoscalingRuntime(
        planner=planner, context_length=12, horizon=4, threshold=60.0,
        monitor=ModelHealthMonitor(window=10) if monitor else None,
    )
    return forecaster, planner, runtime


class TestSaveLoad:
    def test_round_trips_the_state_file(self, tmp_path):
        runtime, planner = make_loop()
        runtime.run(SERIES[:20])
        path = save_checkpoint(
            tmp_path / "ckpt", runtime=runtime,
            config={"model": "naive"}, source_position=20,
        )
        state = load_checkpoint(path)
        assert state["config"] == {"model": "naive"}
        assert state["source_position"] == 20
        assert state["runtime"]["tick"] == START_TICK + 20
        assert state["monitor"] is not None
        assert state["model"]["sampler"] is not None
        # The checkpoint is plain JSON on disk, not pickles: one file.
        assert [entry.name for entry in path.iterdir()] == ["state.json"]
        raw = json.loads((path / "state.json").read_text())
        assert raw["version"] == CHECKPOINT_VERSION == 8
        # ...and every array in it is a raw-byte record, not a number list.
        plan = raw["runtime"]["current_plan"]
        for record in (plan["nodes"], plan["metadata"]["forecast_values"]):
            assert isinstance(record["__ndarray__"], str)
        assert plan["metadata"]["forecast_values"]["shape"] == [3, 6]
        assert not list(path.glob("*tmp*"))

    def test_missing_checkpoint_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope")

    def test_corrupt_state_file_raises_value_error(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "state.json").write_text("{truncated")
        with pytest.raises(ValueError, match="corrupt"):
            load_checkpoint(ckpt)

    def test_version_mismatch_raises(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "state.json").write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(ckpt)

    def test_version_1_file_is_rejected_naming_both_versions(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        # What an older build wrote: list payloads under version 1.
        (ckpt / "state.json").write_text(json.dumps({
            "version": 1, "source_position": 0, "monitor": None,
            "runtime": {"current_plan": {"nodes": [1, 2]}},
        }))
        with pytest.raises(ValueError, match=r"version 1 .*version 8"):
            load_checkpoint(ckpt)

    def test_version_2_file_is_rejected_at_the_door(self, tmp_path):
        """The previous build's file (decision history inside) is not read."""
        runtime, _ = make_loop()
        runtime.run(SERIES[:20])
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime)
        _edit_state(ckpt, lambda state: state.update(version=2))
        with pytest.raises(ValueError, match=r"version 2 .*version 8"):
            load_checkpoint(ckpt)

    def test_version_3_directory_is_rejected_at_the_door(self, tmp_path):
        """The previous build's directory (weights beside it in ``model.npz``,
        pickled models inside) is refused before anything in it is read."""
        runtime, _ = make_loop()
        runtime.run(SERIES[:20])
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime)
        (ckpt / "model.npz").write_bytes(b"PK weights the old build wrote")
        _edit_state(ckpt, lambda state: state.update(
            version=3, model_file="model.npz", sampler=state.pop("model")["sampler"],
        ))
        with pytest.raises(ValueError, match=r"version 3 .*version 8"):
            load_checkpoint(ckpt)


    def test_version_4_file_is_rejected_at_the_door(self, tmp_path):
        """The previous build's file - float64 DeepAR / TFT / QB5000-LSTM weights
        - is refused before anything in it is read, never narrowed silently."""
        runtime, _ = make_loop()
        runtime.run(SERIES[:20])
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime)
        _edit_state(ckpt, lambda state: state.update(version=4))
        with pytest.raises(ValueError, match=r"version 4 .*version 8"):
            load_checkpoint(ckpt)

    def test_version_5_file_is_rejected_at_the_door(self, tmp_path):
        """The previous build's file - its ``config`` the daemon's argparse
        keys, copied back onto the arguments on restore - is refused before
        anything in it is read."""
        runtime, _ = make_loop()
        runtime.run(SERIES[:20])
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime)
        _edit_state(ckpt, lambda state: state.update(
            version=5, config={"model": "naive", "context": 144, "decisions_out": "x"},
        ))
        with pytest.raises(ValueError, match=r"version 5 .*version 8"):
            load_checkpoint(ckpt)

    def test_version_6_file_is_rejected_at_the_door(self, tmp_path):
        """The previous build's file - SLO ledgers under the monitor's
        ``"slos"`` key, beside the alert engine - is refused before anything
        in it is read."""
        runtime, _ = make_loop()
        runtime.run(SERIES[:20])
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime)
        _edit_state(ckpt, lambda state: state.update(version=6))
        with pytest.raises(ValueError, match=r"unsupported checkpoint version 6 .*version 8"):
            load_checkpoint(ckpt)

    def test_version_7_file_is_rejected_at_the_door(self, tmp_path):
        """The previous build's file - the monitor's drift state a list of
        named detectors - is refused before anything in it is read."""
        runtime, _ = make_loop()
        runtime.run(SERIES[:20])
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime)

        def older(state):
            monitor = state["monitor"]
            monitor["detectors"] = [{"name": "cusum", "state": monitor.pop("detector")}]
            state["version"] = 7

        _edit_state(ckpt, older)
        with pytest.raises(ValueError, match=r"unsupported checkpoint version 7 .*version 8"):
            load_checkpoint(ckpt)


def _edit_state(ckpt, edit):
    """Rewrite a checkpoint's state.json through ``edit(state)``."""
    state = json.loads((ckpt / "state.json").read_text())
    edit(state)
    (ckpt / "state.json").write_text(json.dumps(state))


def _truncate_array(state):
    record = state["runtime"]["current_plan"]["metadata"]["forecast_values"]
    record["__ndarray__"] = record["__ndarray__"][:-12]


def _list_payload(state):
    state["runtime"]["current_plan"]["nodes"]["__ndarray__"] = [3, 3, 3]


def _wrong_shape(state):
    state["monitor"]["smuggled"] = {
        "__ndarray__": "AAAAAAAA8D8=", "dtype": "<f8", "shape": [2],
    }


class TestDamagedCheckpoints:
    """Every kind of damage is one ValueError before anything is touched."""

    @pytest.fixture
    def ckpt(self, tmp_path):
        runtime, planner = make_loop()
        runtime.run(SERIES[:25])
        return save_checkpoint(tmp_path / "ckpt", runtime=runtime,
                               planner=planner, source_position=25)

    def _assert_rejected(self, ckpt, match):
        restored, planner = make_loop()
        before = json.dumps(restored.state_dict())
        monitor_before = json.dumps(restored.monitor.state_dict())
        with pytest.raises(ValueError, match=match) as raised:
            restore_from_checkpoint(ckpt, runtime=restored, planner=planner)
        assert "state.json" in str(raised.value)
        assert json.dumps(restored.state_dict()) == before
        assert json.dumps(restored.monitor.state_dict()) == monitor_before

    def test_truncated_file(self, ckpt):
        raw = (ckpt / "state.json").read_bytes()
        (ckpt / "state.json").write_bytes(raw[: len(raw) // 2])
        self._assert_rejected(ckpt, "corrupt")

    def test_zero_byte_file(self, ckpt):
        (ckpt / "state.json").write_bytes(b"")
        self._assert_rejected(ckpt, "corrupt")

    def test_binary_file(self, ckpt):
        (ckpt / "state.json").write_bytes(b"\x93NUMPY\xff\xfe\x00garbage")
        self._assert_rejected(ckpt, "corrupt")

    def test_not_an_object(self, ckpt):
        (ckpt / "state.json").write_text("[1, 2, 3]")
        self._assert_rejected(ckpt, "not a JSON object")

    @pytest.mark.parametrize("field", ["runtime", "source_position", "monitor"])
    def test_missing_field_is_named(self, ckpt, field):
        _edit_state(ckpt, lambda state: state.pop(field))
        self._assert_rejected(ckpt, f"field '{field}' is missing or malformed")

    @pytest.mark.parametrize(
        "damage, field",
        [
            (_truncate_array, r"runtime\.current_plan\.metadata\.forecast_values"),
            (_list_payload, r"runtime\.current_plan\.nodes"),
            (_wrong_shape, r"monitor\.smuggled"),
        ],
    )
    def test_malformed_array_record_is_named(self, ckpt, damage, field):
        _edit_state(ckpt, damage)
        self._assert_rejected(ckpt, f"field '{field}'.*__ndarray__")

    def test_serve_restore_exits_nonzero_with_the_message(self, ckpt, capsys):
        from repro.cli import main

        _edit_state(ckpt, _truncate_array)
        assert main(["serve", "--restore", str(ckpt)]) == 2
        error = capsys.readouterr().err
        assert "state.json" in error
        assert "runtime.current_plan.metadata.forecast_values" in error

    SERVE = ["serve", "--model", "naive", "--days", "5", "--context", "144", "--horizon", "36"]

    def _served(self, tmp_path):
        """A checkpoint ``serve`` wrote, with its spec record in ``config``."""
        from repro.cli import main

        ckpt = tmp_path / "served"
        assert main([*self.SERVE, "--max-ticks", "12", "--checkpoint-dir", str(ckpt),
                     "--checkpoint-at", "10"]) == 0
        assert load_checkpoint(ckpt)["config"]["spec"]["context"] == 144
        return ckpt

    def test_serve_refuses_an_unknown_spec_key_and_writes_nothing(self, tmp_path, capsys):
        """The config used to be copied onto ``serve``'s arguments key by key,
        so a checkpoint could redirect the restored daemon's decision log and
        checkpoints to paths the operator never passed."""
        from repro.cli import main

        ckpt = self._served(tmp_path)
        smuggled = {
            "decisions_out": str(tmp_path / "elsewhere.jsonl"),
            "checkpoint_dir": str(tmp_path / "elsewhere"),
            "checkpoint_every": 1,
        }
        _edit_state(ckpt, lambda state: state["config"]["spec"].update(smuggled))
        before = (ckpt / "state.json").read_bytes()
        capsys.readouterr()
        assert main(["serve", "--restore", str(ckpt), "--max-ticks", "5"]) == 2
        error = capsys.readouterr().err
        assert "config.spec" in error
        assert all(repr(key) in error for key in smuggled), error
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["served"]
        assert (ckpt / "state.json").read_bytes() == before

    def test_serve_refuses_a_mistyped_context(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = self._served(tmp_path)
        _edit_state(ckpt, lambda state: state["config"]["spec"].update(context="abc"))
        capsys.readouterr()
        assert main(["serve", "--restore", str(ckpt), "--max-ticks", "5"]) == 2
        assert "config.spec.context: expected int, got 'abc'" in capsys.readouterr().err

    def test_undamaged_checkpoint_still_restores(self, ckpt):
        restored, planner = make_loop()
        assert restore_from_checkpoint(ckpt, runtime=restored, planner=planner) == 25

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda model, w: w.update(__ndarray__=w["__ndarray__"][:-12]),
             r"state\.json: field 'model\.network\.\S+'.*__ndarray__"),
            (lambda model, w: w.update(shape=[w["shape"][0] + 1, *w["shape"][1:]]),
             r"state\.json: field 'model\.network\.\S+'.*__ndarray__"),
            (lambda model, w: w.update(shape=w["shape"][::-1]),
             r"model\.network\.\S+: expected shape"),
            (lambda model, w: model.pop("scaler.mean"), r"model\.scaler\.mean: missing"),
            (lambda model, w: model.pop(next(k for k in model if k.startswith("network."))),
             r"model\.network\.\S+: missing"),
            (lambda model, w: (model.clear(), model.update(residuals=w)),
             r"model\.\S+: (missing from|not an entry of) this family's state"),
        ],
        ids=["truncated-base64", "short-bytes", "wrong-shape", "missing-entry",
             "missing-weight", "another-family"],
    )
    def test_damaged_model_record_is_rejected_before_restore(self, tmp_path, damage, match):
        _, planner, runtime = mlp_loop(fit=True, monitor=True)
        runtime.run(MLP_TRAIN[:30])
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime, source_position=30)

        def edit(state):
            model = state["model"]
            weight = next(v for k, v in model.items() if k.endswith(".weight"))
            damage(model, weight)

        _edit_state(ckpt, edit)
        forecaster, planner, restored = mlp_loop(fit=False, monitor=True)
        before = json.dumps(restored.state_dict())
        monitor_before = json.dumps(restored.monitor.state_dict())
        with pytest.raises(ValueError, match=match):
            restore_from_checkpoint(ckpt, runtime=restored, planner=planner)
        assert json.dumps(restored.state_dict()) == before
        assert json.dumps(restored.monitor.state_dict()) == monitor_before
        assert forecaster.network is None and not forecaster._fitted

    @pytest.mark.parametrize("record", ["model", "adaptation.candidate"])
    def test_a_float64_weight_in_a_tft_record_is_refused(self, tmp_path, record):
        """Weights keep their dtype: a float64 array where the TFT skeleton has a
        float32 parameter is named and refused - never narrowed - before the
        runtime, the monitor or the adaptation manager is touched."""
        from repro.adaptation import AdaptationManager
        from repro.adaptation.promotion import PromotionPolicy
        from repro.nn.serialization import _decode_value, _encode_value
        from tests.adaptation.doubles import drive, make_runtime
        from tests.forecast.test_serving_copy import build

        def loop():
            runtime = make_runtime(build("tft", context=8, horizon=4))
            policy = PromotionPolicy(guard_windows=9)
            return runtime, AdaptationManager(runtime, auto_refit=False, policy=policy)

        wave = 100.0 + 30.0 * np.sin(np.arange(120) / 3.0)
        runtime, manager = loop()
        runtime.planner.forecaster.fit(wave[:60])
        drive(runtime, manager, wave[60:])
        manager.refit(reason="test")
        ckpt = save_checkpoint(tmp_path / "ckpt", runtime=runtime, adaptation=manager)

        def widen(state):
            model = state["model"] if record == "model" else state["adaptation"]["candidate"]
            key = next(key for key in model if key.endswith(".weight"))
            assert model[key]["dtype"] == "<f4"
            model[key] = _encode_value(_decode_value(model[key]).astype(np.float64))

        _edit_state(ckpt, widen)
        fresh_runtime, fresh = loop()

        def states():
            loop_objects = (fresh_runtime, fresh_runtime.monitor, fresh)
            return [json.dumps(owner.state_dict()) for owner in loop_objects]

        before = states()
        match = rf"^{record}\.network\.\S+: expected a float32 array, got float64"
        with pytest.raises(ValueError, match=match):
            restore_from_checkpoint(ckpt, runtime=fresh_runtime, adaptation=fresh)
        assert states() == before
        assert fresh_runtime.planner.forecaster.network is None and fresh.candidate is None


class TestStateDictFixedPoint:
    """state_dict -> JSON -> load_state_dict -> state_dict changes nothing."""

    def test_monitor_and_alert_engine(self):
        faults = FaultSchedule.parse("planner_error@14,spike@30:4")
        observed, _ = corrupt_series(SERIES, faults)
        runtime, _ = make_loop(faults=faults)
        runtime.run(observed)
        monitor = runtime.monitor
        assert monitor.windows and monitor.alerts.alerts  # something to lose

        state = monitor.state_dict()
        fresh, _ = make_loop()
        fresh.monitor.load_state_dict(json.loads(json.dumps(state)))
        assert fresh.monitor.state_dict() == state
        assert fresh.monitor.windows == monitor.windows
        assert fresh.monitor.drift_events == monitor.drift_events
        assert fresh.monitor.alerts.alerts == monitor.alerts.alerts

        alerts = monitor.alerts.state_dict()
        engine = AlertEngine(default_rules(nominal_level=0.9))
        engine.load_state_dict(json.loads(json.dumps(alerts)))
        assert engine.state_dict() == alerts

    def test_state_dict_does_not_alias_live_windows(self):
        runtime, _ = make_loop()
        runtime.run(SERIES[:30])
        state = runtime.monitor.state_dict()
        state["windows"][0]["coverage"].clear()
        state["windows"][0]["steps"] = -1
        assert runtime.monitor.windows[0].coverage
        assert runtime.monitor.windows[0].steps == 10


class TestKillRestoreBitIdentity:
    KILL_AT = 25

    def _uninterrupted(self, faults, observed):
        runtime, _ = make_loop(faults=faults)
        allocations = runtime.run(observed)
        return runtime, allocations

    def test_restored_run_matches_uninterrupted(self, tmp_path):
        faults = FaultSchedule.parse("nan@5,planner_error@14,spike@30:4,nan@40")
        observed, _ = corrupt_series(SERIES, faults)

        full, full_alloc = self._uninterrupted(faults, observed)

        # "Crash" after KILL_AT ticks: checkpoint, throw everything away.
        victim, victim_planner = make_loop(faults=faults)
        victim.run(observed[: self.KILL_AT])
        save_checkpoint(
            tmp_path / "ckpt", runtime=victim, planner=victim_planner,
            source_position=self.KILL_AT,
        )
        del victim, victim_planner

        # Fresh objects, as a new process would build them.
        restored, planner = make_loop(faults=faults)
        position = restore_from_checkpoint(
            tmp_path / "ckpt", runtime=restored, planner=planner
        )
        assert position == self.KILL_AT
        tail_alloc = restored.run(observed[position:])

        np.testing.assert_array_equal(tail_alloc, full_alloc[position:])
        # The restored process holds the decisions it committed itself:
        # bit for bit the uninterrupted run's newest ones, under a
        # lifetime count that did not restart.
        assert restored.decisions
        assert decision_states(restored.decisions) == decision_states(
            full.decisions[-len(restored.decisions):]
        )
        assert restored.state.decisions_committed == full.state.decisions_committed
        assert restored.state_dict() == full.state_dict()
        assert restored.monitor.state_dict() == full.monitor.state_dict()
        # Counters survived the crash too.
        assert restored.invalid_observations == full.invalid_observations
        assert restored.planner_errors == full.planner_errors

    def test_restore_without_sampler_state_still_diverges(self, tmp_path):
        """Control experiment: the sampler state is load-bearing."""
        full, full_alloc = self._uninterrupted(None, SERIES)

        victim, _ = make_loop()
        victim.run(SERIES[: self.KILL_AT])
        save_checkpoint(tmp_path / "ckpt", runtime=victim,
                        source_position=self.KILL_AT)

        restored, planner = make_loop()
        state = load_checkpoint(tmp_path / "ckpt")
        state["model"] = None  # simulate a lossy checkpoint
        restore_from_checkpoint(state, runtime=restored, planner=planner)
        tail_alloc = restored.run(SERIES[self.KILL_AT :])
        assert not np.array_equal(tail_alloc, full_alloc[self.KILL_AT :])


class TestRestoreMismatches:
    def test_monitor_state_needs_a_monitor(self, tmp_path):
        runtime, _ = make_loop(monitor=True)
        runtime.run(SERIES[:10])
        save_checkpoint(tmp_path / "ckpt", runtime=runtime)
        bare, planner = make_loop(monitor=False)
        with pytest.raises(ValueError, match="monitor"):
            restore_from_checkpoint(tmp_path / "ckpt", runtime=bare,
                                    planner=planner)

    def test_sampler_state_needs_a_sampler(self, tmp_path):
        runtime, planner = make_loop(monitor=False)
        runtime.run(SERIES[:10])
        save_checkpoint(tmp_path / "ckpt", runtime=runtime, planner=planner)

        class DeterministicPlanner(StochasticPlanner):
            def __init__(self, horizon, threshold):
                super().__init__(horizon, threshold)
                self.forecaster = object()  # no _sample_rng

        bare = AutoscalingRuntime(
            planner=DeterministicPlanner(6, 60.0), context_length=8,
            horizon=6, threshold=60.0, start_tick=START_TICK,
        )
        with pytest.raises(ValueError, match="model: .*cannot load"):
            restore_from_checkpoint(tmp_path / "ckpt", runtime=bare)
        assert bare.tick == START_TICK  # refused before the loop was touched


class TestModelWeights:
    def test_crash_while_writing_weights_keeps_the_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """The weights ride in state.json, which is published by rename, so
        they are never half-written - and never out of step with the loop."""
        train, loop = MLP_TRAIN, mlp_loop
        forecaster, planner, runtime = loop(fit=True)
        runtime.run(train[:30])
        path = save_checkpoint(tmp_path / "ckpt", runtime=runtime,
                               source_position=30)
        good_state = (path / "state.json").read_bytes()
        expected = forecaster.predict(train[-12:]).values

        # The next checkpoint dies half-way through its write: part of the
        # file is on disk when the "process" goes away.
        from pathlib import Path

        real_write = Path.write_bytes

        def dying_write(file, data):
            real_write(file, data[: len(data) // 2])
            raise OSError("killed mid-write")

        monkeypatch.setattr(Path, "write_bytes", dying_write)
        runtime.run(train[30:40])
        with pytest.raises(OSError, match="killed"):
            save_checkpoint(path, runtime=runtime, source_position=40)
        monkeypatch.undo()

        assert (path / "state.json").read_bytes() == good_state
        fresh, fresh_planner, fresh_runtime = loop(fit=False)
        position = restore_from_checkpoint(
            path, runtime=fresh_runtime, planner=fresh_planner
        )
        assert position == 30
        np.testing.assert_array_equal(
            fresh.predict(train[-12:]).values, expected
        )

    def test_neural_weights_round_trip_through_the_checkpoint(self, tmp_path):
        forecaster, _, runtime = mlp_loop(fit=True)
        runtime.run(MLP_TRAIN[:30])
        path = save_checkpoint(tmp_path / "ckpt", runtime=runtime,
                               source_position=30)
        assert [entry.name for entry in path.iterdir()] == ["state.json"]
        assert any(key.startswith("network.") for key in load_checkpoint(path)["model"])
        expected = forecaster.predict(MLP_TRAIN[-12:]).values

        fresh, fresh_planner, fresh_runtime = mlp_loop(fit=False)
        restore_from_checkpoint(path, runtime=fresh_runtime,
                                planner=fresh_planner)
        np.testing.assert_array_equal(
            fresh.predict(MLP_TRAIN[-12:]).values, expected
        )

    def test_restoring_from_the_loaded_dict_is_restoring_from_the_path(self, tmp_path):
        """The weights are in the state, so a dict restores them too."""
        forecaster, _, runtime = mlp_loop(fit=True)
        runtime.run(MLP_TRAIN[:30])
        path = save_checkpoint(tmp_path / "ckpt", runtime=runtime, source_position=30)
        restored = []
        for checkpoint in (path, load_checkpoint(path)):
            fresh, planner, fresh_runtime = mlp_loop(fit=False)
            assert restore_from_checkpoint(checkpoint, runtime=fresh_runtime) == 30
            assert fresh_runtime.state_dict() == runtime.state_dict()
            restored.append(fresh.state_dict())
        assert restored[0] == restored[1] == forecaster.state_dict()


class TestCheckpointsFromBeforeFloat32Serving:
    """Precision used to be a flag, so every checkpoint written then embeds
    ``config["dtype"] = "float64"``.  ``serve --restore`` used to copy each
    config key onto its args, which left that key inert.  Since version 6 the
    config is the loop spec's record plus the tick feed, each field read by
    name and type, so the key is refused and named; a checkpoint written
    today restores, serves in float32 from its weights, and continues."""

    SERVE = ["serve", "--model", "deepar", "--days", "4", "--context", "24",
             "--horizon", "12", "--epochs", "1", "--replan-every", "6"]

    @staticmethod
    def _nodes(path):
        return [
            (record["tick"], record["source"], record["nodes"])
            for record in map(json.loads, path.read_text().splitlines())
        ]

    def test_serve_restores_and_continues(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "ckpt"
        assert main([*self.SERVE, "--max-ticks", "40", "--checkpoint-dir", str(ckpt),
                     "--checkpoint-at", "28",
                     "--decisions-out", str(tmp_path / "full.jsonl")]) == 0
        assert "dtype" not in json.loads((ckpt / "state.json").read_text())["config"]

        assert main(["serve", "--restore", str(ckpt), "--max-ticks", "12",
                     "--decisions-out", str(tmp_path / "today.jsonl")]) == 0
        _edit_state(ckpt, lambda state: state["config"].update(dtype="float64"))
        capsys.readouterr()
        assert main(["serve", "--restore", str(ckpt), "--max-ticks", "12",
                     "--decisions-out", str(tmp_path / "old.jsonl")]) == 2
        assert "checkpoint config: unknown field 'dtype'" in capsys.readouterr().err
        assert not (tmp_path / "old.jsonl").exists()

        full = self._nodes(tmp_path / "full.jsonl")
        today = self._nodes(tmp_path / "today.jsonl")
        assert [source for _, source, _ in today] == ["predictive", "predictive"]
        assert today == [entry for entry in full if entry[0] >= today[0][0]]


class TestServeRestoreNeverRefits:
    """Every family ``serve`` can run restores from its checkpointed state:
    killed mid-trace and restored, the daemon continues the uninterrupted
    run's decisions without a single ``fit`` call."""

    @pytest.mark.parametrize("model", ["tft", "deepar", "mlp", "arima", "naive"])
    def test_restore_continues_without_fitting(self, model, tmp_path, monkeypatch):
        from repro import cli
        from repro.forecast import ARIMAForecaster, NeuralForecaster, SeasonalNaiveForecaster
        from repro.loop import MODELS

        assert set(MODELS) == {"tft", "deepar", "mlp", "arima", "naive"}
        serve = ["serve", "--model", model, "--days", "5", "--context", "150",
                 "--horizon", "12", "--epochs", "1", "--replan-every", "6"]
        ckpt = tmp_path / "ckpt"
        assert cli.main([*serve, "--max-ticks", "170", "--checkpoint-dir", str(ckpt),
                         "--checkpoint-at", "158",
                         "--decisions-out", str(tmp_path / "full.jsonl")]) == 0
        assert [entry.name for entry in ckpt.iterdir()] == ["state.json"]

        for family in (NeuralForecaster, ARIMAForecaster, SeasonalNaiveForecaster):
            monkeypatch.setattr(family, "fit", lambda *a, **k: pytest.fail("restore refitted"))
        assert cli.main(["serve", "--restore", str(ckpt), "--max-ticks", "12",
                         "--decisions-out", str(tmp_path / "restored.jsonl")]) == 0
        nodes = TestCheckpointsFromBeforeFloat32Serving._nodes
        restored = nodes(tmp_path / "restored.jsonl")
        assert restored and restored == [
            entry for entry in nodes(tmp_path / "full.jsonl") if entry[0] >= restored[0][0]
        ]


class TestServeRunsTheAdaptivePolicy:
    """``serve --adaptive`` runs the uncertainty-aware policy (Section III-C2,
    Algorithm 1) and checkpoints it as part of the loop spec: killed mid-trace
    and restored, the daemon continues the uninterrupted run's decisions bit
    for bit, without a single ``fit`` call."""

    SERVE = ["serve", "--model", "deepar", "--adaptive", "--days", "4", "--context", "24",
             "--horizon", "12", "--epochs", "1", "--replan-every", "6"]

    @staticmethod
    def _records(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    def test_kill_and_restore_is_bit_identical(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.forecast import NeuralForecaster

        ckpt = tmp_path / "ckpt"
        assert main([*self.SERVE, "--decisions-out", str(tmp_path / "full.jsonl")]) == 0
        assert main([*self.SERVE, "--max-ticks", "34", "--checkpoint-dir", str(ckpt),
                     "--checkpoint-at", "28"]) == 0
        spec = load_checkpoint(ckpt)["config"]["spec"]
        assert (spec["quantile_low"], spec["quantile"], spec["uncertainty_threshold"]) == (
            0.7, 0.9, 100.0
        )

        monkeypatch.setattr(NeuralForecaster, "fit", lambda *a, **k: pytest.fail("refitted"))
        assert main(["serve", "--restore", str(ckpt),
                     "--decisions-out", str(tmp_path / "restored.jsonl")]) == 0
        full = self._records(tmp_path / "full.jsonl")
        restored = self._records(tmp_path / "restored.jsonl")
        assert len(restored) > 10
        assert restored == [record for record in full if record["tick"] >= restored[0]["tick"]]
        strategies = {r["strategy"] for r in restored if r["source"] == "predictive"}
        assert strategies == {"adaptive-0.7/0.9"}


class TestServeRestoresItsObjectives:
    """``serve --monitor --slo`` killed mid-window and restored continues the
    uninterrupted run's decisions and alert records exactly: the objectives'
    windows live in the alert engine's ledgers, which the checkpoint carries."""

    SERVE = ["serve", "--model", "naive", "--days", "10", "--context", "144",
             "--horizon", "36", "--replan-every", "12", "--seed", "3",
             "--monitor", "--monitor-window", "12",
             "--slo", "qos_violation_rate < 0.01 over 48",
             "--slo", "coverage@0.9 >= 0.95 over 48",
             "--alert", "coverage@0.9 < 0.9 over 24"]

    @staticmethod
    def _records(path, *kinds):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        return [{k: v for k, v in r.items() if k != "ts"} for r in records
                if not kinds or r["kind"] in kinds]

    def test_kill_mid_window_and_restore(self, tmp_path):
        from repro.cli import main

        ckpt = tmp_path / "ckpt"
        full, restored = ({"decisions": tmp_path / f"{run}.jsonl",
                           "telemetry": tmp_path / f"{run}-telemetry.jsonl"}
                          for run in ("full", "restored"))
        assert main([*self.SERVE, "--decisions-out", str(full["decisions"]),
                     "--telemetry", str(full["telemetry"])]) == 0
        assert main([*self.SERVE, "--max-ticks", "206", "--checkpoint-at", "200",
                     "--checkpoint-dir", str(ckpt)]) == 0
        state = load_checkpoint(ckpt)
        monitor = state["monitor"]
        assert "slos" not in monitor and monitor["buffer"]["window_steps"] > 0
        assert set(monitor["alerts"]["ledgers"]) == {"violation_rate", "coverage@0.9"}
        assert main(["serve", "--restore", str(ckpt),
                     "--decisions-out", str(restored["decisions"]),
                     "--telemetry", str(restored["telemetry"])]) == 0

        decisions = self._records(restored["decisions"])
        assert len(decisions) > 10
        assert decisions == [d for d in self._records(full["decisions"])
                             if d["tick"] >= decisions[0]["tick"]]

        tick = state["runtime"]["tick"]
        alerts = self._records(restored["telemetry"], "alert")
        assert any(a["name"].startswith("slo-burn:") for a in alerts)
        assert alerts == [a for a in self._records(full["telemetry"], "alert")
                          if a["end_index"] >= tick]
        status = self._records(restored["telemetry"], "slo")
        assert status and status == self._records(full["telemetry"], "slo")[-len(status):]
