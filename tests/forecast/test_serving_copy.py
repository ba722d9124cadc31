"""No stale serving copy is reachable through the public API.

DeepAR and TFT predict from a float32 copy of their weights that is built
on the first predict and dropped by the two writers of a fitted
forecaster's weights, ``fit`` and ``load``.  The oracle for "predicts from
the current weights" is a freshly built forecaster ``load``-ed from the
``save``-d file: it cannot have seen any earlier weights.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core import AutoscalingRuntime, FixedQuantilePolicy, RobustPredictiveAutoscaler
from repro.forecast import DeepARForecaster, TFTForecaster, TrainingConfig
from repro.service import restore_from_checkpoint, save_checkpoint

CTX, HOR = 32, 8
START = 400  # absolute index of the context used below


def build(kind, seed=3, context=CTX, horizon=HOR):
    """A small unfitted DeepAR or TFT (also used by tests/adaptation/test_manager.py)."""
    config = TrainingConfig(epochs=1, batch_size=32, window_stride=8, patience=0, seed=seed)
    if kind == "deepar":
        return DeepARForecaster(
            context, horizon, hidden_size=8, num_layers=2, num_samples=20, config=config
        )
    return TFTForecaster(
        context, horizon, quantile_levels=(0.1, 0.5, 0.9), d_model=8, num_heads=2, config=config
    )


def forecast(forecaster, context):
    if isinstance(forecaster, DeepARForecaster):
        forecaster.reseed_sampler(11)  # same draws on both sides of a comparison
    return forecaster.predict(context, start_index=START).values


def kind_of(forecaster):
    return "deepar" if isinstance(forecaster, DeepARForecaster) else "tft"


def fresh_from_saved(forecaster, tmp_path):
    """A new forecaster that has only ever seen ``forecaster``'s current weights."""
    forecaster.save(tmp_path / "weights.npz")
    twin = build(kind_of(forecaster), context=forecaster.context_length, horizon=forecaster.horizon)
    return twin.load(tmp_path / "weights.npz")


@pytest.fixture(params=["deepar", "tft"])
def served(request, seasonal_series):
    """A fitted forecaster that has already predicted, so its copy exists."""
    forecaster = build(request.param).fit(seasonal_series[:400])
    forecast(forecaster, seasonal_series[START : START + CTX])
    assert forecaster._serving is not None
    return forecaster


@pytest.fixture()
def context(seasonal_series):
    return seasonal_series[START : START + CTX]


def test_warm_fit_is_served_from_the_new_weights(served, context, seasonal_series, tmp_path):
    stale = forecast(served, context)
    served.fit(seasonal_series[200:600] + 25.0, warm_start=True, epochs=1, start_index=200)
    after = forecast(served, context)
    assert not np.array_equal(after, stale)
    assert np.array_equal(after, forecast(fresh_from_saved(served, tmp_path), context))


def test_cold_fit_is_served_from_the_new_weights(served, context, seasonal_series, tmp_path):
    served.fit(seasonal_series[100:500] * 1.5)
    assert np.array_equal(
        forecast(served, context), forecast(fresh_from_saved(served, tmp_path), context)
    )


def test_load_is_served_from_the_loaded_weights(served, context, seasonal_series, tmp_path):
    # another seed: the same series rescaled would train the same weights
    other = build(kind_of(served), seed=4).fit(seasonal_series[:400] * 2.0)
    other.save(tmp_path / "other.npz")
    before = forecast(served, context)
    served.load(tmp_path / "other.npz")
    after = forecast(served, context)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, forecast(other, context))


def test_checkpoint_restore_is_served_from_the_restored_weights(
    served, context, seasonal_series, tmp_path
):
    def loop(forecaster):
        planner = RobustPredictiveAutoscaler(forecaster, 60.0, FixedQuantilePolicy(0.9))
        return planner, AutoscalingRuntime(
            planner=planner, context_length=CTX, horizon=HOR, threshold=60.0
        )

    planner, runtime = loop(served)
    runtime.run(seasonal_series[: CTX + 4])
    path = save_checkpoint(tmp_path / "ckpt", runtime=runtime, source_position=CTX + 4)
    expected = forecast(served, context)

    # the restoring side has served other weights before: its copy must go
    restoring = build(kind_of(served), seed=4).fit(seasonal_series[:400] * 2.0)
    assert not np.array_equal(forecast(restoring, context), expected)
    restoring_planner, restoring_runtime = loop(restoring)
    restore_from_checkpoint(path, runtime=restoring_runtime, planner=restoring_planner)
    assert np.array_equal(forecast(restoring, context), expected)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
                         ids=["deepcopy", "pickle"])
def test_a_clone_carries_no_copy_and_serves_its_own_weights(
    served, context, seasonal_series, tmp_path, clone
):
    twin = clone(served)
    assert "_serving" not in vars(twin) and twin._serving is None
    assert np.array_equal(forecast(twin, context), forecast(served, context))
    # ... and refitting the clone moves neither the original nor its copy
    before = forecast(served, context)
    twin.fit(seasonal_series[200:600] + 25.0, warm_start=True, epochs=1, start_index=200)
    assert np.array_equal(forecast(served, context), before)
    assert np.array_equal(
        forecast(twin, context), forecast(fresh_from_saved(twin, tmp_path), context)
    )


def test_a_fit_that_raises_leaves_no_copy_behind(served, seasonal_series):
    with pytest.raises(ValueError, match="too short"):
        served.fit(seasonal_series[:10], warm_start=True)
    assert served._serving is None
    forecast(served, seasonal_series[START : START + CTX])
    with pytest.raises(ValueError, match="epochs"):
        served.fit(seasonal_series[:400], warm_start=True, epochs=0)
    assert served._serving is None


def test_pickled_size_is_the_same_before_and_after_the_first_predict(seasonal_series, context):
    for kind in ("deepar", "tft"):
        forecaster = build(kind).fit(seasonal_series[:400])
        if kind == "deepar":
            forecaster.reseed_sampler(11)
        before = pickle.dumps(forecaster)
        forecast(forecaster, context)
        assert forecaster._serving is not None
        if kind == "deepar":
            forecaster.reseed_sampler(11)  # predict advanced the sampler; the rng is pickled
        assert pickle.dumps(forecaster) == before


def test_a_forecaster_pickled_before_the_serving_copy_existed_predicts(served, context):
    """Adaptation blobs written by the previous version carry ``inference_dtype``
    in the forecaster's ``__dict__`` and know no serving slot."""
    expected = forecast(served, context)
    old_dict = {k: v for k, v in vars(served).items() if k != "_serving"}
    old_dict["inference_dtype"] = np.dtype(np.float64)
    restored = type(served).__new__(type(served))
    restored.__dict__.update(pickle.loads(pickle.dumps(old_dict)))
    assert restored._serving is None  # the class-level default
    assert np.array_equal(forecast(restored, context), expected)
    assert pickle.loads(pickle.dumps(restored)).inference_dtype == np.float64  # inert, kept
