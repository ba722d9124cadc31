"""Tests for Adam, gradient clipping, dataloaders, serialization, and the
tape-side reference losses (``tests/nn/functional.py``)."""

import numpy as np
import pytest

from repro.nn import Adam, DataLoader, Linear, WindowDataset, clip_grad_norm
from repro.nn.module import Parameter
from repro.nn.serialization import load_state, save_state
from tests.nn import functional as F
from tests.nn.oracles import forward, leaf
from tests.nn.tensor import Tensor


def quadratic_params():
    return [Parameter(np.array([5.0, -3.0]))]


class TestAdam:
    def test_converges_on_quadratic(self):
        params = quadratic_params()
        opt = Adam(params, lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            (leaf(params[0]) * leaf(params[0])).sum().backward()
            opt.step()
        np.testing.assert_allclose(params[0].data, [0.0, 0.0], atol=1e-4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Adam(quadratic_params(), lr=-1.0)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_skips_parameters_without_grads(self):
        params = quadratic_params()
        Adam(params, lr=0.1).step()  # no backward ran; must not raise
        np.testing.assert_array_equal(params[0].data, [5.0, -3.0])

    def test_weight_decay_shrinks_weights(self):
        params = [Parameter(np.array([10.0]))]
        opt = Adam(params, lr=0.05, weight_decay=0.5)
        for _ in range(100):
            opt.zero_grad()
            # loss independent of the parameter; only decay acts
            params[0].grad = np.zeros(1)
            opt.step()
        assert abs(params[0].data[0]) < 10.0

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 3))
        true_w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ true_w
        layer = Linear(3, 1, rng)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            F.mse_loss(forward(layer, Tensor(x)), y).backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.02)


class TestClipAndSchedules:
    def test_clip_grad_norm_scales(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        pre = clip_grad_norm([param], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_clip_noop_when_small(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([0.1, 0.1])
        clip_grad_norm([param], max_norm=5.0)
        np.testing.assert_array_equal(param.grad, [0.1, 0.1])


class TestWindowDataset:
    def test_window_count(self):
        ds = WindowDataset(np.arange(10.0), context_length=3, horizon=2)
        assert len(ds) == 6

    def test_window_contents(self):
        ds = WindowDataset(np.arange(10.0), context_length=3, horizon=2)
        w = ds[0]
        np.testing.assert_array_equal(w.context, [0, 1, 2])
        np.testing.assert_array_equal(w.horizon, [3, 4])

    def test_stride(self):
        ds = WindowDataset(np.arange(10.0), context_length=3, horizon=2, stride=3)
        assert len(ds) == 2

    def test_multiple_series(self):
        ds = WindowDataset([np.arange(6.0), np.arange(6.0)], context_length=2, horizon=1)
        assert len(ds) == 8

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            WindowDataset(np.arange(3.0), context_length=3, horizon=2)

    def test_rejects_2d_series(self):
        with pytest.raises(ValueError):
            WindowDataset(np.ones((4, 2)), context_length=2, horizon=1)

    def test_batch_matches_getitem_single_series(self):
        ds = WindowDataset(np.arange(30.0), context_length=4, horizon=3, stride=2)
        indices = np.array([5, 0, 3, 5])  # out of order, with a repeat
        contexts, horizons, starts = ds.batch(indices)
        assert contexts.flags["C_CONTIGUOUS"] and horizons.flags["C_CONTIGUOUS"]
        for row, i in enumerate(indices):
            w = ds[int(i)]
            np.testing.assert_array_equal(contexts[row], w.context)
            np.testing.assert_array_equal(horizons[row], w.horizon)
            assert starts[row] == w.start

    def test_batch_matches_getitem_multi_series_with_offsets(self):
        rng = np.random.default_rng(3)
        ds = WindowDataset(
            [rng.normal(size=15), rng.normal(size=11), rng.normal(size=20)],
            context_length=3,
            horizon=2,
            start_offsets=[0, 7, 19],
        )
        indices = rng.permutation(len(ds))
        contexts, horizons, starts = ds.batch(indices)
        for row, i in enumerate(indices):
            w = ds[int(i)]
            np.testing.assert_array_equal(contexts[row], w.context)
            np.testing.assert_array_equal(horizons[row], w.horizon)
            assert starts[row] == w.start

    def test_batch_rows_are_writable_copies(self):
        base = np.arange(12.0)
        ds = WindowDataset(base, context_length=3, horizon=1)
        contexts, _, _ = ds.batch(np.array([0, 1]))
        contexts[0, 0] = -99.0  # must not write through to the series
        assert base[0] == 0.0


class TestDataLoader:
    def test_batches_cover_everything(self):
        ds = WindowDataset(np.arange(20.0), context_length=3, horizon=1)
        loader = DataLoader(ds, batch_size=4, shuffle=False)
        total = sum(len(ctx) for ctx, _ in loader)
        assert total == len(ds)

    def test_batch_shapes(self):
        ds = WindowDataset(np.arange(20.0), context_length=3, horizon=2)
        ctx, hor = next(iter(DataLoader(ds, batch_size=5, shuffle=False)))
        assert ctx.shape == (5, 3)
        assert hor.shape == (5, 2)

    def test_shuffle_reproducible_with_seed(self):
        ds = WindowDataset(np.arange(30.0), context_length=3, horizon=1)
        a = [c.copy() for c, _ in DataLoader(ds, 4, rng=np.random.default_rng(5))]
        b = [c.copy() for c, _ in DataLoader(ds, 4, rng=np.random.default_rng(5))]
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_drop_last(self):
        ds = WindowDataset(np.arange(13.0), context_length=3, horizon=1)  # 10 windows
        loader = DataLoader(ds, batch_size=4, shuffle=False, drop_last=True)
        assert len(loader) == 2
        assert sum(1 for _ in loader) == 2


class TestSplitAndSerialization:
    def test_state_roundtrip(self, tmp_path):
        state = {"a.b": np.arange(3.0), "c": np.eye(2)}
        save_state(state, tmp_path / "weights.npz")
        loaded = load_state(tmp_path / "weights.npz")
        assert set(loaded) == {"a.b", "c"}
        np.testing.assert_array_equal(loaded["a.b"], state["a.b"])

    def test_module_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        src = Linear(3, 2, rng)
        save_state(src.state_dict(), tmp_path / "linear.npz")
        dst = Linear(3, 2, np.random.default_rng(2))
        dst.load_state_dict(load_state(tmp_path / "linear.npz"))
        np.testing.assert_array_equal(src.weight.data, dst.weight.data)
        np.testing.assert_array_equal(src.bias.data, dst.bias.data)


class TestLosses:
    def test_mse_loss_value(self):
        loss = F.mse_loss(Tensor(np.array([1.0, 3.0])), np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(5.0)

    def test_gaussian_nll_minimised_at_truth(self):
        target = np.array([2.0])
        at_truth = F.gaussian_nll(Tensor([2.0]), Tensor([1.0]), target).item()
        off = F.gaussian_nll(Tensor([4.0]), Tensor([1.0]), target).item()
        assert at_truth < off

    def test_gaussian_nll_matches_scipy(self):
        from scipy import stats

        value = F.gaussian_nll(Tensor([1.0]), Tensor([2.0]), np.array([0.5])).item()
        expected = -stats.norm.logpdf(0.5, loc=1.0, scale=2.0)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_student_t_nll_matches_scipy(self):
        from scipy import stats

        value = F.student_t_nll(
            Tensor([1.0]), Tensor([2.0]), Tensor([5.0]), np.array([0.5])
        ).item()
        expected = -stats.t.logpdf(0.5, df=5.0, loc=1.0, scale=2.0)
        assert value == pytest.approx(expected, rel=1e-5)

    def test_student_t_nll_gradients_finite(self):
        mean = Tensor(np.array([0.0]), requires_grad=True)
        scale = Tensor(np.array([1.0]), requires_grad=True)
        df = Tensor(np.array([3.0]), requires_grad=True)
        F.student_t_nll(mean, scale, df, np.array([10.0])).backward()
        for t in (mean, scale, df):
            assert np.all(np.isfinite(t.grad))

    def test_pinball_asymmetry(self):
        # Underestimation is penalised more at high quantiles.
        under = F.quantile_loss(Tensor([[0.0]]), np.array([1.0]), [0.9]).item()
        over = F.quantile_loss(Tensor([[2.0]]), np.array([1.0]), [0.9]).item()
        assert under == pytest.approx(0.9)
        assert over == pytest.approx(0.1)

    def test_pinball_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            F.quantile_loss(Tensor([[0.0]]), np.array([1.0]), [1.0])

    def test_quantile_loss_sums_levels(self):
        preds = Tensor(np.zeros((4, 3)))
        target = np.ones(4)
        total = F.quantile_loss(preds, target, [0.1, 0.5, 0.9]).item()
        assert total == pytest.approx(0.1 + 0.5 + 0.9)

    def test_median_pinball_is_half_mae(self):
        rng = np.random.default_rng(0)
        pred, target = rng.normal(size=10), rng.normal(size=10)
        pin = F.quantile_loss(Tensor(pred[:, None]), target, [0.5]).item()
        assert pin == pytest.approx(0.5 * np.abs(pred - target).mean())
