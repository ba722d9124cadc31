"""Tape-side reference implementations the parity tests compare against.

Production code has one raw-array forward per layer
(:mod:`repro.nn.fastpath`) and trains MLP / DeepAR / TFT through the
analytic backwards of :mod:`repro.nn.fastgrad`.  The autograd tape is
the oracle for both: calling a module with gradients enabled runs its
tape ``forward``, and the helpers here run whole algorithms that way.

Tape and kernels share one logistic (``fastpath.sigmoid``) and the cell
runs on pre-halved weights, so their parity cannot catch a mistake in
that trick.  :func:`reference_lstm_cell` is the oracle independent of
it - textbook ``[i, f, g, o]`` layout, ``scipy.special.expit`` gates -
and :func:`reference_kernels` runs whole forecasters on it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.forecast.deepar import _MIN_DF, _MIN_SCALE
from repro.forecast.features import NUM_CALENDAR_FEATURES, calendar_window
from repro.nn import Tensor, fastpath, is_grad_enabled


def sample_paths_tape(forecaster, normalised: np.ndarray, start_index: int) -> np.ndarray:
    """``DeepARForecaster._sample_fast`` through the Tensor tape.

    Every matmul here has the same operand shapes as the raw-kernel
    sampler (warm-up at batch 1, per-step heads on the squeezed (n, H)
    hidden), so both execute identical BLAS calls and the sampled
    trajectories match bit for bit given the same RNG seed.
    """
    assert is_grad_enabled()  # otherwise the modules dispatch to the raw kernels
    n = forecaster.num_samples
    net = forecaster.network
    _, state = net.lstm(Tensor(forecaster._warmup_inputs(normalised, start_index)))
    state = [
        (Tensor(np.repeat(h.data, n, axis=0)), Tensor(np.repeat(c.data, n, axis=0)))
        for h, c in state
    ]

    horizon_features = calendar_window(
        start_index + forecaster.context_length, forecaster.horizon
    )
    step_inputs = np.empty((n, 1, 1 + NUM_CALENDAR_FEATURES))
    samples = np.empty((n, forecaster.horizon))
    last = np.full(n, normalised[-1])
    for h in range(forecaster.horizon):
        step_inputs[:, 0, 0] = last
        step_inputs[:, 0, 1:] = horizon_features[h]
        hidden, state = net.lstm(Tensor(step_inputs), state)
        top = hidden[:, 0, :]
        mu = net.mu_head(top)[..., 0]
        scale = net.scale_head(top)[..., 0].softplus() + _MIN_SCALE
        df = net.df_head(top)[..., 0].softplus() + _MIN_DF
        draws = forecaster._draw(mu.data, scale.data, df.data)
        samples[:, h] = draws
        last = draws
    return samples


def legacy_sample_paths(forecaster, context: np.ndarray, start_index: int = 0) -> np.ndarray:
    """Replica of the seed's ``sample_paths`` (before the raw kernels).

    Warm-up runs the full Tensor network at batch ``num_samples`` (the
    context is tiled per trajectory) and every horizon step goes through
    ``network(Tensor(...), state)`` with (n, 1, F) inputs.  It consumes
    the rng with different call shapes than the current sampler, so it
    is a distributional reference, not a bitwise one.
    """
    assert is_grad_enabled()
    net = forecaster.network
    context = np.asarray(context, dtype=np.float64)
    normalised = forecaster.scaler.transform(context)
    n = forecaster.num_samples
    lagged = np.tile(normalised[:-1], (n, 1))
    indices = start_index + 1 + np.tile(np.arange(len(context) - 1), (n, 1))
    mu, scale, df, state = net(Tensor(forecaster._inputs(lagged, indices)))
    last_value = np.full((n, 1), normalised[-1])
    samples = np.empty((n, forecaster.horizon))
    for h in range(forecaster.horizon):
        step_index = np.full((n, 1), start_index + len(context) + h)
        inputs = forecaster._inputs(last_value, step_index)
        mu, scale, df, state = net(Tensor(inputs), state)
        mu_h, scale_h = mu.data[:, 0], scale.data[:, 0]
        draws = mu_h + scale_h * forecaster._sample_rng.standard_t(df.data[:, 0])
        samples[:, h] = draws
        last_value = draws[:, None]
    return forecaster.scaler.inverse_transform(samples)


def tape_loss_backward(forecaster, batch) -> float:
    """``_loss(*batch).backward()`` on the tape; returns the loss value.

    Same contract as a forecaster's ``_fastgrad_loss_backward``:
    gradients are accumulated into ``param.grad``.
    """
    loss = forecaster._loss(*batch)
    loss.backward()
    return loss.item()


def tape_fit(forecaster, series, **fit_kwargs):
    """``forecaster.fit(series)`` with every minibatch on the autograd tape."""
    forecaster._fastgrad_loss_backward = lambda *batch: tape_loss_backward(forecaster, batch)
    try:
        return forecaster.fit(series, **fit_kwargs)
    finally:
        del forecaster._fastgrad_loss_backward


def reference_lstm_cell(x, h_prev, c_prev, w_ih, w_hh, bias, hidden_size):
    """Textbook LSTM step on *unprepared* ``[i, f, g, o]`` parameters.

    Takes and returns what ``fastpath.lstm_cell_permuted`` does (without
    the activations), but shares nothing with it: no permutation, no
    halving, ``expit`` for the logistic.
    """
    hs = hidden_size
    gates = x @ w_ih + h_prev @ w_hh + bias
    i_gate = expit(gates[:, :hs])
    f_gate = expit(gates[:, hs : 2 * hs])
    g_gate = np.tanh(gates[:, 2 * hs : 3 * hs])
    o_gate = expit(gates[:, 3 * hs :])
    c_new = f_gate * c_prev + i_gate * g_gate
    return o_gate * np.tanh(c_new), c_new, None


def reference_kernels(monkeypatch) -> None:
    """Swap the logistic and the LSTM step of ``fastpath`` for the references.

    Inference then runs the production orchestration (scans, sampling
    loop, TFT composition) on float64 ``expit`` gates and unprepared
    weights; compare against an unpatched run to ``rtol=1e-12``.
    """
    monkeypatch.setattr(fastpath, "sigmoid", expit)
    monkeypatch.setattr(
        fastpath, "prepare_lstm_params", lambda layer_params, hidden_size, dtype=None: layer_params
    )
    monkeypatch.setattr(fastpath, "lstm_cell_permuted", reference_lstm_cell)
