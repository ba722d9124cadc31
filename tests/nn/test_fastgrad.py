"""Gradient parity for the analytic training kernels (repro.nn.fastgrad).

Every kernel is checked two ways: against central finite differences of
its own forward (the math is right) and against the autograd tape (the
analytic pass optimises the identical objective).  The tape is the
oracle — ``tests/nn/oracles.py`` runs a loss or a whole ``fit`` on it —
so these tests are what licenses the analytic pass as the only
production path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.forecast import (
    DeepARForecaster,
    MLPForecaster,
    MLPQuantileForecaster,
    NeuralForecaster,
    TFTForecaster,
    TrainingConfig,
)
from repro.forecast.qb5000 import _LSTMPointForecaster
from repro.nn import LSTM, fastgrad
from tests.nn import functional as F
from tests.nn.oracles import float64_serving, forward, tape_fit, tape_loss_backward
from tests.nn.tensor import Tensor

RNG = np.random.default_rng


def _fd_grad(fn, x, eps=1e-6):
    """Central finite differences of scalar fn at array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# Elementwise / dense kernels vs finite differences
# ---------------------------------------------------------------------------
class TestKernelsAgainstFiniteDifferences:
    def test_linear_backward(self):
        rng = RNG(0)
        x = rng.normal(size=(3, 4, 5))
        w = rng.normal(size=(5, 2))
        b = rng.normal(size=2)
        proj = rng.normal(size=(3, 4, 2))  # scalar loss = sum(out * proj)

        def loss():
            return float((((x @ w) + b) * proj).sum())

        dx, dw, db = fastgrad.linear_backward(x, w, proj)
        np.testing.assert_allclose(dx, _fd_grad(loss, x), atol=1e-6)
        np.testing.assert_allclose(dw, _fd_grad(loss, w), atol=1e-6)
        np.testing.assert_allclose(db, _fd_grad(loss, b), atol=1e-6)
        assert fastgrad.linear_backward(x, w, proj, need_dx=False)[0] is None

    @pytest.mark.parametrize("name", ["relu", "softplus"])
    def test_activation_backwards(self, name):
        rng = RNG(1)
        x = rng.normal(size=(4, 6))
        proj = rng.normal(size=(4, 6))
        forwards = {
            "relu": lambda a: a * (a > 0),
            "softplus": lambda a: np.logaddexp(0.0, a),
        }
        fwd = forwards[name]

        def loss():
            return float((fwd(x) * proj).sum())

        grad = getattr(fastgrad, f"{name}_backward")(x, proj)
        np.testing.assert_allclose(grad, _fd_grad(loss, x), atol=1e-6)

    def test_digamma_is_derivative_of_log_gamma(self):
        x = np.linspace(0.5, 30.0, 40)
        fd = np.zeros_like(x)
        eps = 1e-6
        fd = (fastgrad.log_gamma(x + eps) - fastgrad.log_gamma(x - eps)) / (2 * eps)
        np.testing.assert_allclose(fastgrad.digamma(x), fd, atol=1e-7)

    def test_gaussian_nll_grads(self):
        rng = RNG(2)
        mean = rng.normal(size=(5, 3))
        std = rng.uniform(0.3, 2.0, size=(5, 3))
        target = rng.normal(size=(5, 3))

        loss, dmean, dstd = fastgrad.gaussian_nll_grads(mean, std, target)
        ref = F.gaussian_nll(Tensor(mean), Tensor(std), target).item()
        assert loss == pytest.approx(ref, rel=1e-12)

        def loss_fn():
            return fastgrad.gaussian_nll_grads(mean, std, target)[0]

        np.testing.assert_allclose(dmean, _fd_grad(loss_fn, mean), atol=1e-8)
        np.testing.assert_allclose(dstd, _fd_grad(loss_fn, std), atol=1e-8)

    def test_student_t_nll_grads(self):
        rng = RNG(3)
        mean = rng.normal(size=(4, 3))
        scale = rng.uniform(0.3, 2.0, size=(4, 3))
        df = rng.uniform(2.5, 12.0, size=(4, 3))
        target = rng.normal(size=(4, 3))

        loss, dmean, dscale, ddf = fastgrad.student_t_nll_grads(mean, scale, df, target)
        ref = F.student_t_nll(Tensor(mean), Tensor(scale), Tensor(df), target).item()
        assert loss == pytest.approx(ref, rel=1e-12)

        def loss_fn():
            return fastgrad.student_t_nll_grads(mean, scale, df, target)[0]

        np.testing.assert_allclose(dmean, _fd_grad(loss_fn, mean), atol=1e-7)
        np.testing.assert_allclose(dscale, _fd_grad(loss_fn, scale), atol=1e-7)
        np.testing.assert_allclose(ddf, _fd_grad(loss_fn, df), atol=1e-7)


# ---------------------------------------------------------------------------
# Gate permutation
# ---------------------------------------------------------------------------
class TestGatePermutation:
    """``lstm_backward`` maps its gradients back to the parameter layout
    with the same permutation the forward applied: it must be its own inverse."""

    @pytest.mark.parametrize("hs", [1, 3, 8])
    def test_round_trip(self, hs):
        perm = fastgrad.gate_permutation(hs)
        assert np.array_equal(perm[perm], np.arange(4 * hs))  # involutive
        arr = RNG(4).normal(size=(2, 4 * hs))
        once = arr[..., perm]
        assert not np.array_equal(once, arr)
        np.testing.assert_array_equal(once[..., perm], arr)

    def test_maps_ifgo_to_ifog(self):
        hs = 2
        blocks = np.repeat(np.array([0, 1, 2, 3]), hs)  # i f g o
        np.testing.assert_array_equal(
            blocks[fastgrad.gate_permutation(hs)], np.repeat([0, 1, 3, 2], hs)
        )


# ---------------------------------------------------------------------------
# Fused LSTM BPTT vs the tape
# ---------------------------------------------------------------------------
class TestLSTMAgainstTape:
    @pytest.mark.parametrize(
        "batch,steps,input_size,hidden,layers",
        [(1, 3, 2, 4, 1), (5, 7, 3, 6, 2), (2, 4, 1, 5, 3), (1, 1, 2, 3, 2)],
    )
    def test_forward_and_grads_match(self, batch, steps, input_size, hidden, layers):
        rng = RNG(5)
        lstm = LSTM(input_size, hidden, rng, num_layers=layers)
        x = rng.normal(size=(batch, steps, input_size))
        proj = rng.normal(size=(batch, steps, hidden))

        # Tape reference: projection loss over the full hidden sequence.
        xt = Tensor(x, requires_grad=True)
        seq, _ = forward(lstm, xt)
        (seq * Tensor(proj)).sum().backward()
        tape_grads = {n: p.grad.copy() for n, p in lstm.named_parameters()}
        tape_dx = xt.grad.copy()
        lstm.zero_grad()

        caches = []
        out, _ = lstm.fast_forward(x, cache=caches)
        assert np.array_equal(out, seq.data)  # bitwise, batch 1 included
        grads, dx, _ = fastgrad.lstm_backward(proj, caches, hidden, need_dx=True)
        np.testing.assert_allclose(dx, tape_dx, rtol=1e-9, atol=1e-11)
        for layer, (dw_ih, dw_hh, db) in enumerate(grads):
            for name, got in (("w_ih", dw_ih), ("w_hh", dw_hh), ("bias", db)):
                want = tape_grads[f"cell{layer}.{name}"]
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_weight_grads_via_finite_differences(self):
        rng = RNG(6)
        hidden = 3
        lstm = LSTM(2, hidden, rng, num_layers=1)
        params = lstm._layer_params()
        x = rng.normal(size=(2, 4, 2))
        proj = rng.normal(size=(2, 4, hidden))

        def loss():
            out, _ = lstm.fast_forward(x)
            return float((out * proj).sum())

        caches = []
        lstm.fast_forward(x, cache=caches)
        grads, _, _ = fastgrad.lstm_backward(proj, caches, hidden)
        dw_ih, dw_hh, db = grads[0]
        w_ih, w_hh, bias = params[0]
        np.testing.assert_allclose(dw_ih, _fd_grad(loss, w_ih), atol=1e-6)
        np.testing.assert_allclose(dw_hh, _fd_grad(loss, w_hh), atol=1e-6)
        np.testing.assert_allclose(db, _fd_grad(loss, bias), atol=1e-6)


# ---------------------------------------------------------------------------
# Full model losses: fast path vs tape
# ---------------------------------------------------------------------------
def _batch(forecaster, batch=6, seed=7):
    rng = RNG(seed)
    context = rng.normal(size=(batch, forecaster.context_length))
    horizon = rng.normal(size=(batch, forecaster.horizon))
    starts = rng.integers(0, 500, size=batch)
    return context, horizon, starts


def _tape_loss_and_grads(forecaster, batch):
    forecaster.network.zero_grad()
    loss = tape_loss_backward(forecaster, batch)
    grads = {
        n: (None if p.grad is None else p.grad.copy())
        for n, p in forecaster.network.named_parameters()
    }
    return loss, grads


def _fast_loss_and_grads(forecaster, batch):
    forecaster.network.zero_grad()
    loss = forecaster._loss_backward(*batch)
    grads = {
        n: (None if p.grad is None else p.grad.copy())
        for n, p in forecaster.network.named_parameters()
    }
    return loss, grads


def _assert_grads_match(fast, tape, rtol=1e-9):
    assert set(fast) == set(tape)
    for name in tape:
        if tape[name] is None:
            assert fast[name] is None, name
        else:
            np.testing.assert_allclose(
                fast[name], tape[name], rtol=rtol, atol=1e-11, err_msg=name
            )


class TestModelLossParity:
    @pytest.mark.parametrize("likelihood", ["student_t", "gaussian"])
    def test_deepar(self, likelihood):
        fc = DeepARForecaster(
            12, 6, hidden_size=8, num_layers=2, likelihood=likelihood,
            config=TrainingConfig(epochs=1, seed=0),
        )
        fc.network = fc._build(RNG(0))
        batch = _batch(fc)
        with float64_serving(fc):  # DeepAR trains in float32; the tape in float64
            tape_loss, tape_grads = _tape_loss_and_grads(fc, batch)
            fast_loss, fast_grads = _fast_loss_and_grads(fc, batch)
        assert fast_loss == pytest.approx(tape_loss, rel=1e-12)
        _assert_grads_match(fast_grads, tape_grads)

    def test_mlp(self):
        fc = MLPForecaster(10, 4, hidden_size=16, config=TrainingConfig(epochs=1))
        fc.network = fc._build(RNG(1))
        batch = _batch(fc)
        # the one raw forward (predict and training both call it) is the tape's, bit for bit
        for raw, tape in zip(fc.network.fast_forward(batch[0]), forward(fc.network, Tensor(batch[0]))):
            assert np.array_equal(raw, tape.data)
        tape_loss, tape_grads = _tape_loss_and_grads(fc, batch)
        fast_loss, fast_grads = _fast_loss_and_grads(fc, batch)
        assert fast_loss == pytest.approx(tape_loss, rel=1e-12)
        _assert_grads_match(fast_grads, tape_grads)

    @pytest.mark.parametrize("name", ["mlp_quantile", "qb5000_lstm"])
    def test_converted(self, name):
        fc = _TINY[name]()
        fc.network = fc._build(RNG(2))
        batch = _batch(fc)
        with float64_serving(fc):  # QB5000's LSTM trains in float32; the tape in float64
            tape_loss, tape_grads = _tape_loss_and_grads(fc, batch)
            fast_loss, fast_grads = _fast_loss_and_grads(fc, batch)
        assert fast_loss == pytest.approx(tape_loss, rel=1e-12)
        _assert_grads_match(fast_grads, tape_grads)

    @pytest.mark.parametrize("name", ["mlp_quantile", "qb5000_lstm"])
    def test_converted_against_finite_differences(self, name):
        """Independent of the tape: a mistake shared by the analytic pass
        and its tape composition cannot hide from the forward-only loss."""
        fc = _TINY[name]()
        fc.network = fc._build(RNG(3))
        batch = _batch(fc, batch=3)
        with float64_serving(fc):  # finite differences need float64
            _, grads = _fast_loss_and_grads(fc, batch)
            for pname, param in fc.network.named_parameters():
                fd = _fd_grad(lambda: fc._forward_loss(*batch)[0], param.data)
                np.testing.assert_allclose(grads[pname], fd, atol=1e-6, err_msg=pname)


# ---------------------------------------------------------------------------
# The training contract every NeuralForecaster implements
# ---------------------------------------------------------------------------
_CFG = TrainingConfig(epochs=1, seed=0)
_LEVELS = (0.1, 0.5, 0.9)
_TINY = {
    "mlp": lambda: MLPForecaster(6, 3, hidden_size=5, config=_CFG),
    "deepar-student_t": lambda: DeepARForecaster(6, 3, hidden_size=4, num_layers=2, config=_CFG),
    "deepar-gaussian": lambda: DeepARForecaster(
        6, 3, hidden_size=4, num_layers=1, likelihood="gaussian", config=_CFG
    ),
    "tft": lambda: TFTForecaster(6, 3, quantile_levels=_LEVELS, d_model=4, num_heads=2, config=_CFG),
    "mlp_quantile": lambda: MLPQuantileForecaster(6, 3, _LEVELS, hidden_size=5, config=_CFG),
    "qb5000_lstm": lambda: _LSTMPointForecaster(6, 3, hidden_size=4, config=_CFG),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestTrainingContract:
    def test_every_neural_forecaster_implements_the_hook(self):
        shipped = {
            cls for cls in _subclasses(NeuralForecaster)
            if cls.__module__.startswith("repro.forecast.")
        }
        assert shipped == {type(make()) for make in _TINY.values()}  # no case missing below
        for cls in shipped:
            assert cls._build is not NeuralForecaster._build, cls
            assert cls._forward_loss is not NeuralForecaster._forward_loss, cls
            assert cls._loss_backward is NeuralForecaster._loss_backward, cls  # one training step

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("name", list(_TINY))
    def test_forward_only_loss_is_the_training_loss(self, name, batch):
        """Validation runs ``_forward_loss`` alone: same value, bit for
        bit, as the training step returns, and no gradient left behind."""
        fc = _TINY[name]()
        fc.network = fc._build(RNG(4))
        data = _batch(fc, batch=batch)
        loss = fc._forward_loss(*data)[0]
        assert isinstance(loss, float)
        assert all(p.grad is None for p in fc.network.parameters())
        assert fc._loss_backward(*data) == loss
        assert any(p.grad is not None for p in fc.network.parameters())


class TestFitTrajectoryParity:
    """End-to-end: the analytic pass follows the same loss trajectory
    (and produces the same weights) as a fit on the tape - both in float64,
    the LSTM families through ``float64_serving``."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda cfg: DeepARForecaster(16, 8, hidden_size=8, num_layers=1, config=cfg),
            lambda cfg: MLPForecaster(16, 8, hidden_size=8, config=cfg),
            lambda cfg: MLPQuantileForecaster(16, 8, hidden_size=8, config=cfg),
            lambda cfg: _LSTMPointForecaster(16, 8, hidden_size=8, config=cfg),
        ],
        ids=["deepar", "mlp", "mlp_quantile", "qb5000_lstm"],
    )
    def test_trajectories_match(self, factory):
        rng = RNG(8)
        series = 50 + 10 * np.sin(np.arange(220) * 2 * np.pi / 24) + rng.normal(0, 1, 220)

        cfg = TrainingConfig(epochs=3, batch_size=16, seed=0, patience=0)
        with float64_serving(factory(cfg)) as fast, float64_serving(factory(cfg)) as tape:
            fast.fit(series)
            tape_fit(tape, series)
            fast_losses = [r["train_loss"] for r in fast.history]
            tape_losses = [r["train_loss"] for r in tape.history]
            np.testing.assert_allclose(fast_losses, tape_losses, rtol=1e-10)
            for (name, pf), (_, pt) in zip(
                fast.network.named_parameters(), tape.network.named_parameters()
            ):
                assert pf.data.dtype == pt.data.dtype == np.float64
                np.testing.assert_allclose(
                    pf.data, pt.data, rtol=1e-8, atol=1e-10, err_msg=name
                )
