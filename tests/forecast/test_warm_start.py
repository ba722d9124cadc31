"""Tests for incremental warm-started refits of neural forecasters.

The bugfix under test: ``fit()`` used to unconditionally rebuild the
network and refit the scaler, so an online refit discarded all learned
state and its provenance was indistinguishable from a cold fit.  With
``warm_start=True`` the trained network and scaler are reused, the
training history accumulates across fits with a ``cold|warm`` mode per
epoch, and the shuffling seed advances with ``fits_completed`` so a
refit is continued training, not a bit-identical replay.
"""

import numpy as np
import pytest

from repro.forecast.mlp import MLPForecaster
from repro.forecast.neural import TrainingConfig

CTX, HOR = 8, 4


def make_series(n=60, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 50 + 20 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 1, n)


def make_model(epochs=3, patience=0, seed=0):
    # patience=0 disables validation: epoch counts are then exact.
    config = TrainingConfig(epochs=epochs, patience=patience, seed=seed)
    return MLPForecaster(CTX, HOR, hidden_size=8, config=config)


class TestWarmStartReusesState:
    def test_warm_fit_keeps_network_and_scaler(self):
        model = make_model()
        model.fit(make_series())
        network, mean = model.network, float(model.scaler.mean_)
        model.fit(make_series(seed=1) + 10, warm_start=True)
        assert model.network is network
        assert float(model.scaler.mean_) == mean

    def test_cold_fit_rebuilds_network_and_scaler(self):
        model = make_model()
        model.fit(make_series())
        network, mean = model.network, float(model.scaler.mean_)
        model.fit(make_series(seed=1) + 10)
        assert model.network is not network
        assert float(model.scaler.mean_) != mean

    def test_warm_start_on_unfitted_model_is_a_cold_fit(self):
        model = make_model()
        model.fit(make_series(), warm_start=True)
        assert model.network is not None
        assert all(r["mode"] == "cold" for r in model.history)

    def test_warm_fit_continues_training(self):
        # Same data, warm refit: the weights must move (continued
        # training), not be rebuilt from the cold seed.
        series = make_series()
        model = make_model()
        model.fit(series)
        before = {
            k: v.copy() for k, v in model.network.state_dict().items()
        }
        model.fit(series, warm_start=True)
        after = model.network.state_dict()
        assert any(
            not np.allclose(before[k], after[k]) for k in before
        )


class TestCumulativeHistory:
    def test_history_accumulates_with_modes(self):
        model = make_model(epochs=3)
        model.fit(make_series())
        model.fit(make_series(seed=1), warm_start=True)
        modes = [r["mode"] for r in model.history]
        assert modes == ["cold"] * 3 + ["warm"] * 3
        assert [r["epoch"] for r in model.history] == list(range(6))

    def test_second_warm_fit_keeps_appending(self):
        model = make_model(epochs=2)
        model.fit(make_series())
        model.fit(make_series(seed=1), warm_start=True)
        model.fit(make_series(seed=2), warm_start=True)
        assert len(model.history) == 6
        assert [r["epoch"] for r in model.history] == list(range(6))

    def test_cold_fit_resets_history(self):
        model = make_model(epochs=2)
        model.fit(make_series())
        model.fit(make_series(seed=1), warm_start=True)
        model.fit(make_series(seed=2))  # cold again
        assert [r["mode"] for r in model.history] == ["cold", "cold"]
        assert [r["epoch"] for r in model.history] == [0, 1]

    def test_fits_completed_counts_every_fit(self):
        model = make_model(epochs=1)
        assert model.fits_completed == 0
        model.fit(make_series())
        model.fit(make_series(), warm_start=True)
        model.fit(make_series())
        assert model.fits_completed == 3


class TestEpochOverride:
    def test_epochs_argument_caps_this_call_only(self):
        model = make_model(epochs=4)
        model.fit(make_series())
        model.fit(make_series(seed=1), warm_start=True, epochs=1)
        warm = [r for r in model.history if r["mode"] == "warm"]
        assert len(warm) == 1
        # The configured budget is untouched for the next call.
        model.fit(make_series(seed=2), warm_start=True)
        assert len(model.history) == 4 + 1 + 4

    def test_zero_epochs_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="epochs"):
            model.fit(make_series(), epochs=0)


class TestWarmRefitDeterminism:
    def test_warm_refit_is_not_a_replay_of_the_cold_fit(self):
        # The shuffle seed advances with fits_completed: refitting on
        # the identical series must not reproduce the cold fit's
        # trajectory batch for batch.
        series = make_series()
        model = make_model(epochs=3)
        model.fit(series)
        cold_losses = [r["train_loss"] for r in model.history]
        model.fit(series, warm_start=True)
        warm_losses = [
            r["train_loss"] for r in model.history if r["mode"] == "warm"
        ]
        assert warm_losses != cold_losses

    def test_same_lineage_is_reproducible(self):
        # Cold fit + warm refit is deterministic end to end.
        def lineage():
            model = make_model(epochs=2)
            model.fit(make_series())
            model.fit(make_series(seed=1) + 5, warm_start=True)
            forecast = model.predict(make_series()[-CTX:], levels=(0.5,))
            return forecast.values

        np.testing.assert_allclose(lineage(), lineage())


class TestFittedNetworkHoldsNoGradients:
    """The last minibatch's gradients are not fitted state: ``fit`` releases
    them, so ``copy.deepcopy`` (an adaptation refit) and pickling carry
    the weights and nothing else."""

    @pytest.mark.parametrize("family", ["mlp", "deepar", "tft", "qb5000_lstm"])
    def test_every_grad_is_none_after_a_cold_and_a_warm_fit(self, family):
        from repro.forecast import DeepARForecaster, TFTForecaster
        from repro.forecast.qb5000 import _LSTMPointForecaster

        config = TrainingConfig(epochs=2, patience=1, validation_fraction=0.3, seed=0)
        model = {
            "mlp": lambda: MLPForecaster(CTX, HOR, hidden_size=8, config=config),
            "deepar": lambda: DeepARForecaster(CTX, HOR, hidden_size=8, config=config),
            "tft": lambda: TFTForecaster(CTX, HOR, d_model=8, num_heads=2, config=config),
            "qb5000_lstm": lambda: _LSTMPointForecaster(CTX, HOR, hidden_size=8, config=config),
        }[family]()
        model.fit(make_series())
        assert all(param.grad is None for param in model.network.parameters())
        model.fit(make_series(seed=1), warm_start=True, epochs=1)
        assert all(param.grad is None for param in model.network.parameters())
