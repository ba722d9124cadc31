"""A forecaster predicts from its current weights, whatever wrote them.

DeepAR and TFT train and serve one float32 network (docs/nn.md,
Precision): there is no serving copy to go stale, and these tests keep it
that way across every writer of a fitted forecaster's weights - a warm or
cold ``fit``, ``load``, a checkpoint restore, a clone.  The oracle for
"predicts from the current weights" is a freshly built forecaster
``load``-ed from the ``save``-d file: it cannot have seen any earlier
weights.
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
    """A fitted forecaster that has already predicted from its one network."""
    forecaster = build(request.param).fit(seasonal_series[:400])
    forecast(forecaster, seasonal_series[START : START + CTX])
    assert all(p.data.dtype == np.float32 for p in forecaster.network.parameters())
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
    for mine, theirs in zip(twin.network.parameters(), served.network.parameters(), strict=True):
        assert mine.data.dtype == np.float32 and not np.shares_memory(mine.data, theirs.data)
    assert np.array_equal(forecast(twin, context), forecast(served, context))
    # ... and refitting the clone moves neither the original nor its copy
    before = forecast(served, context)
    twin.fit(seasonal_series[200:600] + 25.0, warm_start=True, epochs=1, start_index=200)
    assert np.array_equal(forecast(served, context), before)
    assert np.array_equal(
        forecast(twin, context), forecast(fresh_from_saved(twin, tmp_path), context)
    )


def test_a_fit_that_raises_leaves_no_copy_behind(served, context, tmp_path):
    """... nor a network other than the one it had."""
    expected = forecast(fresh_from_saved(served, tmp_path), context)
    with pytest.raises(ValueError, match="too short"):
        served.fit(context[:10], warm_start=True)
    assert np.array_equal(forecast(served, context), expected)
    with pytest.raises(ValueError, match="epochs"):
        served.fit(np.tile(context, 20), warm_start=True, epochs=0)
    assert np.array_equal(forecast(served, context), expected)


def test_pickled_size_is_the_same_before_and_after_the_first_predict(seasonal_series, context):
    """Predicting builds nothing beside the one network: DeepAR pickles to the
    same bytes after its first predict, the TFT to fewer (its attention
    read-out shrinks from the last training batch's to the served window's)."""
    for kind in ("deepar", "tft"):
        forecaster = build(kind).fit(seasonal_series[:400])
        if kind == "deepar":
            forecaster.reseed_sampler(11)
        before = pickle.dumps(forecaster)
        forecast(forecaster, context)
        if kind == "deepar":
            forecaster.reseed_sampler(11)  # predict advanced the sampler; the rng is pickled
            assert pickle.dumps(forecaster) == before
        else:
            assert len(pickle.dumps(forecaster)) < len(before)


def test_a_forecaster_pickled_before_the_serving_copy_existed_predicts(served, context):
    """No pickle crosses a build boundary any more (a checkpoint carries arrays),
    but a ``__dict__`` holding older builds' keys - ``inference_dtype``, a
    ``_serving`` slot - predicts from its one network all the same."""
    expected = forecast(served, context)
    old_dict = dict(vars(served), inference_dtype=np.dtype(np.float64), _serving=None)
    restored = type(served).__new__(type(served))
    restored.__dict__.update(pickle.loads(pickle.dumps(old_dict)))
    assert np.array_equal(forecast(restored, context), expected)
