"""Tests for forecaster persistence: the state protocol and its npz wrappers."""

import json

import numpy as np
import pytest

from repro.forecast import DeepARForecaster, MLPForecaster, TFTForecaster, TrainingConfig
from repro.loop import MODELS, LoopSpec

from .conftest import SEASON
from .test_serving_copy import build

CTX, HOR = 32, 8


@pytest.fixture()
def config():
    return TrainingConfig(epochs=2, batch_size=32, window_stride=8, patience=0, seed=3)


class TestSaveLoad:
    def test_mlp_roundtrip(self, seasonal_series, config, tmp_path):
        original = MLPForecaster(CTX, HOR, hidden_size=16, config=config).fit(
            seasonal_series
        )
        original.save(tmp_path / "mlp.npz")
        restored = MLPForecaster(CTX, HOR, hidden_size=16, config=config).load(
            tmp_path / "mlp.npz"
        )
        context = seasonal_series[-CTX:]
        a = original.predict(context, levels=(0.5, 0.9))
        b = restored.predict(context, levels=(0.5, 0.9))
        np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_tft_roundtrip(self, seasonal_series, config, tmp_path):
        levels = (0.1, 0.5, 0.9)
        original = TFTForecaster(
            CTX, HOR, quantile_levels=levels, d_model=8, num_heads=2, config=config
        ).fit(seasonal_series)
        original.save(tmp_path / "tft.npz")
        restored = TFTForecaster(
            CTX, HOR, quantile_levels=levels, d_model=8, num_heads=2, config=config
        ).load(tmp_path / "tft.npz")
        context = seasonal_series[-CTX:]
        np.testing.assert_allclose(
            original.predict(context).values, restored.predict(context).values,
            rtol=1e-12,
        )

    def test_load_restores_scaler(self, seasonal_series, config, tmp_path):
        original = MLPForecaster(CTX, HOR, hidden_size=16, config=config).fit(
            seasonal_series
        )
        original.save(tmp_path / "m.npz")
        restored = MLPForecaster(CTX, HOR, hidden_size=16, config=config).load(
            tmp_path / "m.npz"
        )
        assert restored.scaler.mean_ == pytest.approx(original.scaler.mean_)
        assert restored.scaler.std_ == pytest.approx(original.scaler.std_)

    def test_wrong_architecture_rejected(self, seasonal_series, config, tmp_path):
        MLPForecaster(CTX, HOR, hidden_size=16, config=config).fit(
            seasonal_series
        ).save(tmp_path / "m.npz")
        with pytest.raises((KeyError, ValueError)):
            MLPForecaster(CTX, HOR, hidden_size=32, config=config).load(
                tmp_path / "m.npz"
            )

    def test_save_before_fit_rejected(self, config, tmp_path):
        with pytest.raises(RuntimeError):
            MLPForecaster(CTX, HOR, config=config).save(tmp_path / "m.npz")


def small(kind):
    if kind == "mlp":
        config = TrainingConfig(epochs=1, batch_size=32, window_stride=8, patience=0, seed=3)
        return MLPForecaster(CTX, HOR, hidden_size=16, config=config)
    return build(kind)


class TestRestoredForecasterRefitsLikeTheOriginal:
    """``fits_completed`` and ``history`` are fitted state: the next warm refit
    takes its shuffle seed from the first and its epoch numbers from the
    second.  ``load`` used to drop both, so a restored forecaster replayed
    the cold fit's shuffle order and renumbered its epochs from zero."""

    @pytest.mark.parametrize("route", ["state_dict", "npz"])
    @pytest.mark.parametrize("kind", ["tft", "deepar", "mlp"])
    def test_warm_refit_after_restore_matches_the_uninterrupted_one(
        self, kind, route, seasonal_series, tmp_path
    ):
        series = seasonal_series[:400]
        original = small(kind).fit(series)
        if route == "npz":
            original.save(tmp_path / "fitted.npz")
            restored = small(kind).load(tmp_path / "fitted.npz")
        else:
            restored = small(kind).load_state_dict(json.loads(json.dumps(original.state_dict())))
        assert restored.fits_completed == 1 and restored.history == original.history

        for forecaster in (original, restored):
            forecaster.fit(series, warm_start=True, epochs=1)
        assert restored.history == original.history
        assert [record["epoch"] for record in restored.history] == [0, 1]
        ours, theirs = restored.network.state_dict(), original.network.state_dict()
        assert ours.keys() == theirs.keys()
        for name in theirs:
            assert np.array_equal(ours[name], theirs[name]), name


class TestStateProtocol:
    """The five families ``serve`` can run cross a restart as their arrays."""

    CONTEXT, HORIZON = 160, 8  # SeasonalNaive's season is a 144-step day

    @pytest.fixture(scope="class")
    def series(self):
        rng = np.random.default_rng(5)
        t = np.arange(600)
        return 100.0 + 30.0 * np.sin(2 * np.pi * t / 144) + rng.normal(0.0, 3.0, size=len(t))

    def skeleton(self, name):
        return LoopSpec(name, self.CONTEXT, self.HORIZON, epochs=1, seed=2).forecaster()

    @pytest.mark.parametrize("name", MODELS)
    def test_round_trip_is_a_fixed_point(self, name, series, tmp_path, monkeypatch):
        fitted = self.skeleton(name).fit(series)
        state = fitted.state_dict()

        restored = self.skeleton(name)
        if name in ("naive", "arima"):  # restoring is not refitting
            monkeypatch.setattr(
                type(restored), "fit", lambda *a, **k: pytest.fail("restore called fit")
            )
        restored.load_state_dict(json.loads(json.dumps(state)))
        assert restored.state_dict() == state

        context = series[-self.CONTEXT :]
        assert np.array_equal(
            restored.predict(context, start_index=440).values,
            fitted.predict(context, start_index=440).values,
        )
        if isinstance(fitted, DeepARForecaster):  # ... and the draw after that one
            assert np.array_equal(
                restored.sample_paths(context).samples, fitted.sample_paths(context).samples
            )

        fitted.save(tmp_path / "state.npz")
        with np.load(tmp_path / "state.npz", allow_pickle=False) as archive:
            assert "json" in archive.files
        assert self.skeleton(name).load(tmp_path / "state.npz").state_dict() == fitted.state_dict()

    @pytest.mark.parametrize("name", ["tft", "deepar"])
    def test_the_serving_copy_is_never_in_the_state(self, name, series):
        """There is one network, and the state is its float32 arrays: one record
        per parameter, unmoved by predicting."""
        fitted = self.skeleton(name).fit(series)
        if name == "deepar":
            fitted.reseed_sampler(11)
        state = fitted.state_dict()
        weights = [key for key in state if key.startswith("network.")]
        assert len(weights) == len(list(fitted.network.parameters()))
        assert {state[key]["dtype"] for key in weights} == {"<f4"}
        before = json.dumps(state)
        fitted.predict(series[-self.CONTEXT :])
        if name == "deepar":
            fitted.reseed_sampler(11)  # predict advanced the sampler, which is state
        assert json.dumps(fitted.state_dict()) == before

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda state: state.pop("scaler.std"), "^scaler.std: missing"),
            (lambda state: state.update(residuals=[1.0]), "^residuals: not an entry"),
            (lambda state: state.update(fits_completed="1"), "^fits_completed: expected int"),
            (lambda state: next(v for k, v in state.items() if k.startswith("network."))
             .update(shape=[1]), r"^network\.\S+: "),
        ],
    )
    def test_a_state_that_does_not_fit_leaves_the_forecaster_as_it_was(
        self, damage, match, seasonal_series
    ):
        fitted = small("mlp").fit(seasonal_series[:400])
        state = json.loads(json.dumps(fitted.state_dict()))
        damage(state)
        target = small("mlp").fit(seasonal_series[100:500] * 2.0)
        before = target.state_dict()
        with pytest.raises(ValueError, match=match):
            target.load_state_dict(state)
        assert target.state_dict() == before

    def test_a_state_from_another_family_is_refused(self, series):
        naive = self.skeleton("naive").fit(series)
        arima = self.skeleton("arima").fit(series)
        with pytest.raises(ValueError, match="^ar_coef: missing from this family's state"):
            self.skeleton("arima").load_state_dict(naive.state_dict())
        with pytest.raises(ValueError, match="^ar_coef: not an entry of this family's state"):
            self.skeleton("naive").load_state_dict(arima.state_dict())
        with pytest.raises(ValueError, match="^ar_coef: not an entry of this family's state"):
            self.skeleton("mlp").load_state_dict(arima.state_dict())
