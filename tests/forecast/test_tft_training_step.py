"""The TFT training step at the end-to-end benchmark's shape.

Two properties of one step, at batch 32, context 72, horizon 72, 4 heads
and 11 quantile levels in float32 (the ``cycle-tft`` forecaster of
``benchmarks/e2e``; the fits here run one epoch on every eighth window,
the harness's ``--quick`` schedule):

* **Bitwise.**  The sha256 of the weights, the loss ``history``, one
  ``predict`` and the gradients of one more step, after a cold fit and
  after a warm refit, on seeds 0-2.  A change to how a step computes or
  stores its activations that moves one bit of a weight or a gradient
  shows here.
* **Working set.**  ``tracemalloc`` counts numpy's buffers exactly, so the
  peak a step allocates above its entry is deterministic for a shape.  A
  training step holds its activation cache plus one head's score
  gradient; validation holds one batch's activations (docs/nn.md, Memory
  of a training step).
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.forecast import TFTForecaster, TrainingConfig
from repro.traces import alibaba_like_trace

CONTEXT = HORIZON = 72
LEVELS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
FIT_TICKS = 1296
REFIT_SHIFT = 144
BATCH = 32
MIB = 1 << 20


def _forecaster(seed: int) -> TFTForecaster:
    config = TrainingConfig(epochs=1, window_stride=8, seed=seed)
    return TFTForecaster(CONTEXT, HORIZON, quantile_levels=LEVELS, config=config)


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def _parameter_sha(network, field: str) -> str:
    """sha256 of every parameter's ``data`` or ``grad``, with its name."""
    parameters = network.named_parameters()
    return _sha(b"".join(name.encode() + getattr(p, field).tobytes() for name, p in parameters))


def _batch(seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    contexts = rng.normal(size=(BATCH, CONTEXT))
    horizons = rng.normal(size=(BATCH, HORIZON))
    return contexts, horizons, np.arange(BATCH) * 8


def _fingerprint(forecaster: TFTForecaster, values: np.ndarray, end: int) -> dict:
    """Weights, history, one forecast and the gradients of one more step.

    Adam's update often rounds a last-bit gradient difference away in
    float32 weights, so the gradients are pinned on their own.
    """
    weights = _parameter_sha(forecaster.network, "data")
    forecast = forecaster.predict(values[end - CONTEXT : end], start_index=end - CONTEXT)
    forecaster._loss_backward(*_batch())
    grads = _parameter_sha(forecaster.network, "grad")
    forecaster.network.zero_grad()
    return {
        "weights": weights,
        "history": _sha(json.dumps(forecaster.history).encode()),
        "predict": _sha(np.ascontiguousarray(forecast.values).tobytes()),
        "grads": grads,
    }


def fingerprints(seed: int) -> dict:
    """A cold fit on the first nine days, then a warm refit one day later."""
    values = alibaba_like_trace(num_steps=FIT_TICKS + REFIT_SHIFT, seed=seed).values
    forecaster = _forecaster(seed).fit(values[:FIT_TICKS])
    cold = _fingerprint(forecaster, values, FIT_TICKS)
    forecaster.fit(values[REFIT_SHIFT:], warm_start=True, epochs=1, start_index=REFIT_SHIFT)
    warm = _fingerprint(forecaster, values, FIT_TICKS + REFIT_SHIFT)
    return {"cold": cold, "warm": warm}


#: Recorded before the in-place softmax, the per-head attention backward
#: and the cache-dropping TFT backward; each of them is bitwise.
GOLDEN = {
    0: {
        "cold": {
            "weights": "aa1989a4b8066ba4", "history": "ead94dfdbff1b8a9",
            "predict": "154cf944c9556f67", "grads": "17332877ce581fab",
        },
        "warm": {
            "weights": "4a3206ecd6312559", "history": "6b655d4a2ad8cc01",
            "predict": "315a9d4f05ad31b8", "grads": "bd4a314d7111e0a5",
        },
    },
    1: {
        "cold": {
            "weights": "158d9954ccd4e619", "history": "b647584920e822e2",
            "predict": "429b6cf61e61772b", "grads": "753378bfcaf34c64",
        },
        "warm": {
            "weights": "baf636875a3008f6", "history": "ed2b96aeca32dcb3",
            "predict": "fd8dddb71dccb610", "grads": "2f60ce64085d5878",
        },
    },
    2: {
        "cold": {
            "weights": "91e81eab8dbd31b0", "history": "ee4de6e3b7c67e90",
            "predict": "2107e6b8f15b8ada", "grads": "4e2640b87de66c77",
        },
        "warm": {
            "weights": "f22970e131e597c0", "history": "40bdbb238609265a",
            "predict": "098b13a50e41b7ff", "grads": "9826159fe3a5656c",
        },
    },
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cold_fit_and_warm_refit_are_bitwise_pinned(seed):
    assert fingerprints(seed) == GOLDEN[seed]


def _peak_above_entry(call) -> float:
    """Bytes ``call()`` holds at its peak beyond what it was entered with, in MiB."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - entry) / MIB
    finally:
        if started:
            tracemalloc.stop()


class TestTrainingStepMemory:
    @pytest.fixture(scope="class")
    def forecaster(self):
        forecaster = _forecaster(0)
        forecaster.network = forecaster._in_precision(forecaster._build(np.random.default_rng(0)))
        forecaster._loss_backward(*_batch())  # gradient buffers exist from here on
        return forecaster

    def test_training_step_holds_one_head_of_score_gradient(self, forecaster):
        batch = _batch(1)
        assert _peak_above_entry(lambda: forecaster._loss_backward(*batch)) <= 22.0

    def test_validation_batch_normalises_its_scores_in_place(self, forecaster):
        batch = _batch(2)
        assert _peak_above_entry(lambda: forecaster._forward_loss(*batch)) <= 13.0
