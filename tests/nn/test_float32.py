"""The precision contract: DeepAR, TFT and QB5000's LSTM are float32 networks.

There is no precision switch.  A kernel computes in the dtype of the
weights it is handed; a forecaster family whose predict is an LSTM scan
casts its freshly built network to float32 once and trains and serves
that one network, handing float64 back.  Pinned here:

(a) *no silent promotion* - float32 weights and float32 input give float32
    output, float32 activations and float32 gradients, out of every forward
    and backward kernel, every layer and the three networks;
(b) *float64 in is the tape's arithmetic* - the tape-parity suites
    (``test_fastpath.py``, ``test_tft_fastpath.py``, ``test_fastgrad.py`` ...)
    run the same kernels on float64 weights and stay bitwise; the
    forecaster-level ones reach a float64 network through
    ``oracles.float64_serving``, the float64 reference used below as well;
(c) *the error budgets* - at the benchmark's shape float32 serving stays
    within 1e-5 of the same weights served in float64, a float32 fit's
    held-out wQL and coverage within 1e-4 / 0.002 of a float64 fit's, and
    same-seed float32 fits and forecasts repeat bit for bit;
(d) float32 ``tanh`` / ``logaddexp`` raise no floating-point warning on
    finite input (CI runs this directory under ``-W error::RuntimeWarning``).
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.evaluation.metrics import coverage, mean_weighted_quantile_loss
from repro.forecast import DeepARForecaster, MLPForecaster, TFTForecaster, TrainingConfig
from repro.forecast.deepar import _DeepARNetwork
from repro.forecast.features import NUM_CALENDAR_FEATURES
from repro.forecast.qb5000 import QB5000Forecaster, _LSTMPointForecaster, _LSTMPointNetwork
from repro.forecast.tft import _TFTNetwork
from repro.nn import (
    GatedLinearUnit,
    GatedResidualNetwork,
    InterpretableMultiHeadAttention,
    LayerNorm,
    Linear,
    causal_mask,
    fastgrad,
    fastpath,
)
from repro.nn.rnn import LSTM
from tests.nn.oracles import as_float32, float64_serving

HIDDEN = 8
F32 = np.float32


@pytest.fixture(scope="module")
def lstm():
    return LSTM(input_size=3, hidden_size=HIDDEN, rng=np.random.default_rng(0), num_layers=2)


@pytest.fixture(scope="module")
def sequence():
    return np.random.default_rng(1).normal(size=(4, 10, 3))


# -- (a) no silent promotion: the LSTM kernels ------------------------------


def test_prepare_lstm_params_casts_weights(lstm):
    """Prepared weights carry the dtype of the parameters they were cut from."""
    prepared = fastpath.prepare_lstm_params(as_float32(lstm)._layer_params(), HIDDEN)
    for w_ih, w_hh, bias in prepared:
        assert w_ih.dtype == w_hh.dtype == bias.dtype == F32


def test_lstm_forward_float32_stays_float32(lstm, sequence):
    outputs, state = as_float32(lstm).fast_forward(sequence.astype(F32))
    assert outputs.dtype == F32
    for h, c in state:
        assert h.dtype == c.dtype == F32


def test_lstm_step_float32_stays_float32(lstm):
    """The scan casts what it is handed once: a float64 input and a float64
    carried state still leave a float32 module in float32."""
    x = np.random.default_rng(2).normal(size=(4, 3))
    state = [(np.zeros((4, HIDDEN)), np.zeros((4, HIDDEN))) for _ in range(2)]
    top, new_state = as_float32(lstm).fast_step(x, state)
    assert top.dtype == F32
    for h, c in new_state:
        assert h.dtype == c.dtype == F32


def test_sigmoid_preserves_dtype():
    x32 = np.linspace(-20, 20, 101, dtype=F32)
    out32 = fastpath.sigmoid(x32)
    assert out32.dtype == F32
    out64 = fastpath.sigmoid(x32.astype(np.float64))
    np.testing.assert_allclose(out32, out64, atol=1e-6)


def test_fastgrad_forward_and_backward_float32(lstm, sequence):
    """float32 in, float32 grads out: how the LSTM families train."""
    caches = []
    outputs, _ = as_float32(lstm).fast_forward(sequence.astype(F32), cache=caches)
    assert outputs.dtype == F32
    grads, _, _ = fastgrad.lstm_backward(np.ones_like(outputs), caches, HIDDEN)
    for dw_ih, dw_hh, db in grads:
        assert dw_ih.dtype == dw_hh.dtype == db.dtype == F32


# -- (a) no silent promotion: every kernel, every layer ---------------------


def _arrays(value):
    """Every ndarray reachable from a kernel's result or its activation cache."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        yield from _arrays([getattr(value, f.name) for f in dataclasses.fields(value)])
    elif isinstance(value, dict):
        yield from _arrays(list(value.values()))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


def _rand(*shape):
    return np.random.default_rng(sum(shape)).normal(size=shape).astype(F32)


def _module(cls, *args, **kwargs):
    return as_float32(cls(*args, rng=np.random.default_rng(3), **kwargs))


def _mask():
    return causal_mask(query_len=3, key_len=5)  # float64, shared and read-only


def _cell(x, h, c):
    (prepared,) = fastpath.prepare_lstm_params(_module(LSTM, 3, HIDDEN)._layer_params(), HIDDEN)
    return fastpath.lstm_cell_permuted(x, h, c, *prepared)


def _tft_with_cache():
    net, cache = as_float32(_TFTNetwork(8, 2, 3, np.random.default_rng(3))), {}
    out = net.fast_forward(
        _rand(2, 6, 1 + NUM_CALENDAR_FEATURES), _rand(2, 4, NUM_CALENDAR_FEATURES), cache=cache
    )
    return out, net._last_attention, cache


def _deepar_with_cache():
    net, cache = as_float32(_DeepARNetwork(HIDDEN, 2, np.random.default_rng(3))), {}
    return net.fast_forward(_rand(2, 5, 1 + NUM_CALENDAR_FEATURES), cache), cache


def _lstm_with_cache():
    caches = []
    return _module(LSTM, 3, HIDDEN, num_layers=2).fast_forward(_rand(2, 5, 3), cache=caches), caches


def _positive(*shape):
    return np.abs(_rand(*shape)) + 0.5


def _backward(module, run):
    """``run(module)``'s result and the gradients it left in ``module`` (some)."""
    result = run(module)
    grads = [param.grad for param in module.parameters() if param.grad is not None]
    assert grads
    return result, grads


def _lstm_backward(lstm):
    caches = []
    lstm.fast_forward(_rand(2, 5, 3), cache=caches)
    dstate = [(_rand(2, HIDDEN), _rand(2, HIDDEN))] * 2
    result = fastgrad.lstm_backward(_rand(2, 5, HIDDEN), caches, HIDDEN, need_dx=True, dstate=dstate)
    lstm.accumulate_grads(result[0])
    return result


def _network_backward(net, inputs, output_grads):
    cache = {}
    net.fast_forward(*inputs, cache=cache)
    return net.backward(cache, *output_grads)


FLOAT32_CALLS = {
    # elementwise kernels
    "sigmoid": lambda: fastpath.sigmoid(_rand(4, 5)),
    "tanh": lambda: fastpath.tanh(_rand(4, 5)),
    "relu": lambda: fastpath.relu(_rand(4, 5)),
    "softplus": lambda: fastpath.softplus(_rand(4, 5)),
    "softmax": lambda: fastpath.softmax(_rand(4, 5)),
    # layer kernels, activation caches included
    "linear": lambda: fastpath.linear(_module(Linear, 5, 4), _rand(2, 5)),
    "linear.no_bias": lambda: fastpath.linear(_module(Linear, 5, 4, bias=False), _rand(2, 5)),
    "layer_norm": lambda: fastpath.layer_norm(as_float32(LayerNorm(5)), _rand(2, 3, 5)),
    "glu_forward": lambda: fastpath.glu_forward(_module(GatedLinearUnit, 5, 4), _rand(2, 5)),
    "grn_forward": lambda: fastpath.grn_forward(
        _module(GatedResidualNetwork, 5, 5, 5), _rand(2, 5)
    ),
    "grn_forward.skip": lambda: fastpath.grn_forward(
        _module(GatedResidualNetwork, 5, 6, 4), _rand(2, 5)
    ),
    "prepare_attention_params": lambda: fastpath.prepare_attention_params(
        [(_rand(8, 4), _rand(4)), (_rand(8, 4), _rand(4))]
    ),
    "interpretable_attention": lambda: fastpath.interpretable_attention(
        _module(InterpretableMultiHeadAttention, 8, 2),
        _rand(2, 3, 8), _rand(2, 5, 8), _rand(2, 5, 8), mask=_mask(),
    ),
    "prepare_lstm_params": lambda: fastpath.prepare_lstm_params(
        _module(LSTM, 3, HIDDEN, num_layers=2)._layer_params(), HIDDEN
    ),
    "lstm_cell_permuted": lambda: _cell(_rand(4, 3), _rand(4, HIDDEN), _rand(4, HIDDEN)),
    "lstm_forward+cache": _lstm_with_cache,
    "lstm_step": lambda: fastpath.lstm_step(
        _rand(4, 3),
        _module(LSTM, 3, HIDDEN)._layer_params(),
        HIDDEN,
        [(_rand(4, HIDDEN), _rand(4, HIDDEN))],
    ),
    # every layer's fast_forward
    "Linear": lambda: _module(Linear, 5, 4).fast_forward(_rand(2, 5)),
    "LayerNorm": lambda: as_float32(LayerNorm(5)).fast_forward(_rand(2, 5)),
    "GatedLinearUnit": lambda: _module(GatedLinearUnit, 5, 4).fast_forward(_rand(2, 5)),
    "GatedResidualNetwork": lambda: _module(GatedResidualNetwork, 5, 6, 4).fast_forward(
        _rand(2, 5)
    ),
    "InterpretableMultiHeadAttention": lambda: _module(
        InterpretableMultiHeadAttention, 8, 2
    ).fast_forward(_rand(2, 3, 8), _rand(2, 5, 8), _rand(2, 5, 8), mask=_mask()),
    "LSTM.fast_forward": lambda: _module(LSTM, 3, HIDDEN).fast_forward(_rand(2, 5, 3)),
    "LSTM.fast_step": lambda: _module(LSTM, 3, HIDDEN).fast_step(
        _rand(4, 3), [(_rand(4, HIDDEN), _rand(4, HIDDEN))]
    ),
    # the networks the float32-serving forecasters run
    "_TFTNetwork+cache": _tft_with_cache,
    "_DeepARNetwork+cache": _deepar_with_cache,
    "_LSTMPointNetwork": lambda: as_float32(
        _LSTMPointNetwork(HIDDEN, 4, np.random.default_rng(3))
    ).fast_forward(_rand(2, 6)),
    # every backward and loss kernel: float32 gradients, in ``param.grad`` too
    "linear_backward": lambda: fastgrad.linear_backward(_rand(2, 3, 5), _rand(5, 4), _rand(2, 3, 4)),
    "sigmoid_backward": lambda: fastgrad.sigmoid_backward(fastpath.sigmoid(_rand(4, 5)), _rand(5, 4).T),
    "tanh_backward": lambda: fastgrad.tanh_backward(np.tanh(_rand(4, 5)), _rand(5, 4).T),
    "relu_backward": lambda: fastgrad.relu_backward(_rand(4, 5), _rand(5, 4).T),
    "softplus_backward": lambda: fastgrad.softplus_backward(_rand(4, 5), _rand(5, 4).T),
    "softmax_backward": lambda: fastgrad.softmax_backward(fastpath.softmax(_rand(4, 5)), _rand(5, 4).T),
    "log_gamma": lambda: fastgrad.log_gamma(_positive(4, 5)),
    "digamma": lambda: fastgrad.digamma(_positive(4, 5)),
    "gaussian_nll_grads": lambda: fastgrad.gaussian_nll_grads(
        _rand(4, 5), _positive(4, 5), _rand(5, 4).T
    ),
    "student_t_nll_grads": lambda: fastgrad.student_t_nll_grads(
        _rand(4, 5), _positive(4, 5), _positive(4, 5) + 2.0, _rand(5, 4).T
    ),
    "quantile_loss_grads": lambda: fastgrad.quantile_loss_grads(
        _rand(2, 4, 3), _rand(2, 4), [0.1, 0.5, 0.9]
    ),
    "Linear.backward": lambda: _backward(
        _module(Linear, 5, 4), lambda lin: lin.backward(_rand(2, 5), _rand(2, 4))
    ),
    "layer_norm_backward": lambda: _backward(
        as_float32(LayerNorm(5)),
        lambda norm: fastgrad.layer_norm_backward(
            norm, fastpath.layer_norm(norm, _rand(2, 3, 5))[1], _rand(3, 2, 5).reshape(2, 3, 5)
        ),
    ),
    "glu_backward": lambda: _backward(
        _module(GatedLinearUnit, 5, 4),
        lambda glu: fastgrad.glu_backward(glu, fastpath.glu_forward(glu, _rand(2, 5))[1], _rand(2, 4)),
    ),
    "grn_backward": lambda: _backward(
        _module(GatedResidualNetwork, 5, 5, 5),
        lambda grn: fastgrad.grn_backward(grn, fastpath.grn_forward(grn, _rand(2, 5))[1], _rand(5, 2).T),
    ),
    "grn_backward.skip": lambda: _backward(
        _module(GatedResidualNetwork, 5, 6, 4),
        lambda grn: fastgrad.grn_backward(grn, fastpath.grn_forward(grn, _rand(2, 5))[1], _rand(2, 4)),
    ),
    "attention_backward": lambda: _backward(
        _module(InterpretableMultiHeadAttention, 8, 2),
        lambda attn: fastgrad.attention_backward(
            attn,
            fastpath.interpretable_attention(
                attn, _rand(2, 3, 8), _rand(2, 5, 8), _rand(2, 5, 8), mask=_mask()
            )[2],
            _rand(3, 2, 8).reshape(2, 3, 8),
        ),
    ),
    "lstm_backward": lambda: _backward(_module(LSTM, 3, HIDDEN, num_layers=2), _lstm_backward),
    # the three networks' backward
    "_TFTNetwork.backward": lambda: _backward(
        as_float32(_TFTNetwork(8, 2, 3, np.random.default_rng(3))),
        lambda net: _network_backward(
            net,
            (_rand(2, 6, 1 + NUM_CALENDAR_FEATURES), _rand(2, 4, NUM_CALENDAR_FEATURES)),
            (_rand(2, 4, 3),),
        ),
    ),
    "_DeepARNetwork.backward": lambda: _backward(
        as_float32(_DeepARNetwork(HIDDEN, 2, np.random.default_rng(3))),
        lambda net: _network_backward(
            net, (_rand(2, 5, 1 + NUM_CALENDAR_FEATURES),), (_rand(10), _rand(10, 1)[:, 0], _rand(1, 10)[0])
        ),
    ),
    "_LSTMPointNetwork.backward": lambda: _backward(
        as_float32(_LSTMPointNetwork(HIDDEN, 4, np.random.default_rng(3))),
        lambda net: _network_backward(net, (_rand(2, 6),), (_rand(2, 4),)),
    ),
}


@pytest.mark.parametrize("name", sorted(FLOAT32_CALLS))
def test_float32_weights_and_input_give_float32_everywhere(name):
    """No kernel promotes: every output, every cached activation and every
    gradient is float32, and nothing the call does raises a floating-point
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        arrays = list(_arrays(FLOAT32_CALLS[name]()))
    assert arrays, name
    assert {a.dtype for a in arrays} == {np.dtype(F32)}, name


def test_float32_transcendentals_raise_nothing_on_finite_input():
    """``tanh`` saturates and ``logaddexp`` is stable in float32 as in float64:
    overflow, invalid and divide stay clear out to the largest finite float32."""
    big = np.finfo(F32).max
    x = np.concatenate([np.linspace(-200, 200, 4001), [-big, -1e30, 1e30, big]]).astype(F32)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for kernel in (fastpath.tanh, fastpath.sigmoid, fastpath.softplus):
            out = kernel(x)
            assert out.dtype == F32 and np.all(np.isfinite(out))
        # softmax over scores carrying the causal mask's -1e9
        masked = np.concatenate([x[:4001], np.full(4, -1e9, dtype=F32)]).reshape(5, -1)
        assert np.all(np.isfinite(fastpath.softmax(masked)))


# -- (b) float64 weights keep the training arithmetic -----------------------


def test_default_dtype_is_float64_and_matches_explicit(lstm, sequence):
    """The dtype is the weights', not the input's: a float64 module computes in
    float64 on whatever it is handed, exactly as on the explicit widening."""
    default_out, default_state = lstm.fast_forward(sequence)
    assert default_out.dtype == np.float64
    narrow = sequence.astype(F32)
    narrow_out, narrow_state = lstm.fast_forward(narrow)
    explicit_out, explicit_state = lstm.fast_forward(narrow.astype(np.float64))
    assert narrow_out.dtype == np.float64
    assert np.array_equal(narrow_out, explicit_out)
    for (h_a, c_a), (h_b, c_b) in zip(narrow_state, explicit_state):
        assert h_a.dtype == c_a.dtype == np.float64
        assert np.array_equal(h_a, h_b) and np.array_equal(c_a, c_b)


def test_float32_close_to_float64_forward(lstm, sequence):
    out64, _ = lstm.fast_forward(sequence)
    out32, _ = as_float32(lstm).fast_forward(sequence)
    np.testing.assert_allclose(out32, out64, atol=1e-5)


def test_float32_copy_is_a_detached_cast_of_every_weight():
    """There is no float32 copy: the one cast (``NeuralForecaster._in_precision``)
    rounds every weight of a freshly built network in place, once, and keeps a
    float64 family's arrays as they are (``copy=False``)."""
    forecaster = _LSTMPointForecaster(12, 4, hidden_size=HIDDEN)
    built = forecaster._build(np.random.default_rng(5))
    reference = [param.data.copy() for param in built.parameters()]
    params = list(built.parameters())
    assert forecaster._in_precision(built) is built
    for param, kept, want in zip(built.parameters(), params, reference, strict=True):
        assert param is kept and param.grad is None
        assert param.data.dtype == F32 and np.array_equal(param.data, want.astype(F32))

    mlp = MLPForecaster(12, 4)
    network = mlp._build(np.random.default_rng(5))
    arrays = [param.data for param in network.parameters()]
    mlp._in_precision(network)
    assert all(param.data is array for param, array in zip(network.parameters(), arrays))


# -- forecaster level --------------------------------------------------------


def _series(length):
    rng = np.random.default_rng(0)
    return 100 + 20 * np.sin(np.arange(length) * 2 * np.pi / 144) + rng.normal(0, 3, length)


@pytest.fixture(scope="module")
def fitted():
    series = _series(400)
    return DeepARForecaster(
        36, 12, hidden_size=8, num_layers=1, num_samples=50,
        config=TrainingConfig(epochs=1, seed=0),
    ).fit(series), series


def _spy_on_fast_forward(network, monkeypatch):
    """Record the dtype of everything ``network.fast_forward`` returns."""
    seen = []
    real = network.fast_forward

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.extend(a.dtype for a in _arrays(out))
        return out

    monkeypatch.setattr(network, "fast_forward", spy)
    return seen


def _one_float32_network(forecaster):
    """The forecaster holds one network, float32, with no gradient left over."""
    assert "_serving" not in vars(forecaster) and not hasattr(forecaster, "_serving_network")
    assert all(p.data.dtype == F32 and p.grad is None for p in forecaster.network.parameters())


def test_deepar_serves_float32_and_returns_float64(fitted):
    forecaster, series = fitted
    context = series[-36:]
    _one_float32_network(forecaster)
    raw = forecaster._sample_fast(forecaster.scaler.transform(context), 364)
    assert raw.dtype == F32
    assert forecaster.sample_paths(context, start_index=364).samples.dtype == np.float64
    forecast = forecaster.predict(context, start_index=364)
    assert forecast.values.dtype == forecast.mean.dtype == np.float64
    _one_float32_network(forecaster)


def test_tft_serves_float32_and_returns_float64(monkeypatch):
    series = _series(400)
    forecaster = TFTForecaster(
        36, 12, d_model=16, num_heads=2, config=TrainingConfig(epochs=1, seed=0)
    ).fit(series)
    _one_float32_network(forecaster)
    seen = _spy_on_fast_forward(forecaster.network, monkeypatch)
    forecast = forecaster.predict(series[-36:], start_index=364)
    assert seen == [np.dtype(F32)]
    assert forecast.values.dtype == np.float64
    # the interpretability read-out is the pattern of the forward that served
    assert forecaster.attention_weights() is forecaster.network._last_attention
    assert forecaster.attention_weights().dtype == F32
    assert forecaster.attention_weights().shape == (1, 12, 48)


def test_qb5000_lstm_serves_float32_and_returns_float64(monkeypatch):
    series = _series(300)
    forecaster = QB5000Forecaster(
        36, 12, hidden_size=8, config=TrainingConfig(epochs=1, seed=0)
    ).fit(series)
    _one_float32_network(forecaster.lstm)
    seen = _spy_on_fast_forward(forecaster.lstm.network, monkeypatch)
    point = forecaster.lstm.predict_point(series[-36:])
    assert seen == [np.dtype(F32)]
    assert point.dtype == np.float64
    assert forecaster.predict_point(series[-36:]).dtype == np.float64
    with float64_serving(forecaster.lstm):
        reference = forecaster.lstm.predict_point(series[-36:])
    np.testing.assert_allclose(point, reference, rtol=1e-5)


def test_float32_sampling_deterministic_and_close_to_float64(fitted):
    forecaster, series = fitted
    context = series[-36:]

    forecaster.reseed_sampler(7)
    with float64_serving(forecaster):
        paths64 = forecaster.sample_paths(context, start_index=364).samples

    forecaster.reseed_sampler(7)
    paths32_a = forecaster.sample_paths(context, start_index=364).samples
    forecaster.reseed_sampler(7)
    paths32_b = forecaster.sample_paths(context, start_index=364).samples

    # Same seed, same weights -> bit-identical.
    assert np.array_equal(paths32_a, paths32_b)
    # Against the float64 reference the gate is on quantiles (standard_t
    # rejection sampling may consume different draws once an intermediate
    # differs in the last ulp): per-step quantiles must agree closely
    # relative to the sampling spread.
    q64 = np.quantile(paths64, [0.1, 0.5, 0.9], axis=0)
    q32 = np.quantile(paths32_a, [0.1, 0.5, 0.9], axis=0)
    spread = np.maximum(q64[2] - q64[0], 1e-6)
    assert np.max(np.abs(q32 - q64) / spread) < 0.5


def test_float64_mode_unaffected_by_prior_float32_use(fitted):
    """The float64 route widens the one network in place and gives its float32
    weights back on exit, so the reference is bitwise the same before and after
    float32 serving."""
    forecaster, series = fitted
    context = series[-36:]
    weights = [p.data.copy() for p in forecaster.network.parameters()]
    forecaster.reseed_sampler(3)
    with float64_serving(forecaster):
        assert all(p.data.dtype == np.float64 for p in forecaster.network.parameters())
        before = forecaster.sample_paths(context, start_index=364).samples
    for param, kept in zip(forecaster.network.parameters(), weights, strict=True):
        assert param.data.dtype == F32 and np.array_equal(param.data, kept)
    assert forecaster.sample_paths(context, start_index=364).samples.dtype == np.float64
    forecaster.reseed_sampler(3)
    with float64_serving(forecaster):
        after = forecaster.sample_paths(context, start_index=364).samples
    assert np.array_equal(before, after)


# -- (c) the serving budget at the benchmark's shape -------------------------

#: ``benchmarks/e2e`` serves context = horizon = 72, H = d_model = 32, 100 paths.
BENCH = dict(context_length=72, horizon=72)
# The fitted float32 weights served in float32 against the same weights served
# in float64: measured here 1.2e-7 (DeepAR, of the 0.1-0.9 spread) and 1.9e-7
# (TFT, relative) (docs/nn.md, Precision).
BUDGET = 1e-5


def _bench_series(length=720):
    rng = np.random.default_rng(5)
    t = np.arange(length)
    return 1900 + 400 * np.sin(t * 2 * np.pi / 144) + rng.normal(0, 60, t.size)


def test_deepar_error_budget_at_benchmark_shape():
    series = _bench_series()
    forecaster = DeepARForecaster(
        **BENCH, hidden_size=32, num_layers=2, num_samples=100,
        config=TrainingConfig(epochs=1, batch_size=64, window_stride=4, seed=0),
    ).fit(series[:600])
    levels = (0.1, 0.5, 0.7, 0.9)
    worst = 0.0
    for start in (600, 624, 648):
        context = series[start - 72 : start]
        forecaster.reseed_sampler(start)
        served = forecaster.predict(context, levels=levels, start_index=start - 72)
        forecaster.reseed_sampler(start)
        again = forecaster.predict(context, levels=levels, start_index=start - 72)
        assert np.array_equal(served.values, again.values)
        forecaster.reseed_sampler(start)
        with float64_serving(forecaster):
            reference = forecaster.predict(context, levels=levels, start_index=start - 72)
        spread = reference.at(0.9) - reference.at(0.1)
        worst = max(worst, float(np.max(np.abs(served.values - reference.values) / spread)))
    assert 0.0 < worst < BUDGET, worst  # float32 really served, inside the budget


def test_tft_error_budget_at_benchmark_shape():
    series = _bench_series()
    grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
    forecaster = TFTForecaster(
        **BENCH, quantile_levels=grid, d_model=32, num_heads=4,
        config=TrainingConfig(epochs=1, batch_size=64, window_stride=4, seed=0),
    ).fit(series[:600])
    worst = 0.0
    with float64_serving(forecaster):  # before any float32 serving
        first_reference = forecaster.predict(series[528:600], start_index=528)
    for start in (600, 624, 648):
        context = series[start - 72 : start]
        served = forecaster.predict(context, start_index=start - 72)
        again = forecaster.predict(context, start_index=start - 72)
        assert np.array_equal(served.values, again.values)
        with float64_serving(forecaster):
            reference = forecaster.predict(context, start_index=start - 72)
            attention = forecaster.attention_weights()
        if start == 600:  # the float64 reference is untouched by float32 serving
            assert np.array_equal(reference.values, first_reference.values)
        worst = max(
            worst, float(np.max(np.abs(served.values - reference.values) / np.abs(reference.values)))
        )
        # the served attention pattern is the reference's, to float32 resolution
        forecaster.predict(context, start_index=start - 72)
        np.testing.assert_allclose(forecaster.attention_weights(), attention, atol=1e-6)
    assert 0.0 < worst < BUDGET, worst


# -- (c) training in float32: same seed, same bits; against the float64 route --

FAMILIES = {
    "deepar": lambda: DeepARForecaster(
        36, 12, hidden_size=8, num_samples=30, config=TrainingConfig(epochs=2, seed=0)
    ),
    "tft": lambda: TFTForecaster(
        36, 12, d_model=16, num_heads=2, config=TrainingConfig(epochs=2, seed=0)
    ),
    "qb5000_lstm": lambda: _LSTMPointForecaster(
        36, 12, hidden_size=8, config=TrainingConfig(epochs=2, seed=0)
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_seed_float32_fits_are_array_equal(family):
    """A cold fit and the warm refit after it repeat bit for bit: weights and history."""
    series = _series(500)
    runs = []
    for _ in range(2):
        forecaster = FAMILIES[family]().fit(series[:400])
        cold = [p.data.copy() for p in forecaster.network.parameters()]
        forecaster.fit(series[100:], warm_start=True, epochs=1, start_index=100)
        runs.append((cold, forecaster))
    (cold_a, first), (cold_b, second) = runs
    _one_float32_network(first)
    assert first.history == second.history and len(first.history) == 3
    assert all(np.array_equal(a, b) for a, b in zip(cold_a, cold_b, strict=True))
    for a, b in zip(first.network.parameters(), second.network.parameters(), strict=True):
        assert np.array_equal(a.data, b.data)


#: A float32 fit against the same-seed float64 fit, held out.  Measured here
#: 5.8e-9 (DeepAR) and 1.8e-7 (TFT) relative wQL, coverage@0.9 unmoved; at the
#: e2e configs (seeds 0-4, 60 windows each) at most 6.9e-7 and unmoved
#: (docs/nn.md, Precision).
WQL_BUDGET, COVERAGE_BUDGET = 1e-4, 0.002


def _held_out(forecaster, series, fit_end):
    """Mean wQL over the grid and coverage@0.9 on the windows after ``fit_end``."""
    levels = (0.1, 0.5, 0.9)
    targets, values = [], []
    for start in range(fit_end, len(series) - 72 + 1, 24):
        if isinstance(forecaster, DeepARForecaster):
            forecaster.reseed_sampler(start)
        forecast = forecaster.predict(series[start - 72 : start], levels=levels, start_index=start - 72)
        targets.append(series[start : start + 72])
        values.append(forecast.values)
    target, values = np.concatenate(targets), np.concatenate(values, axis=1)
    wql = mean_weighted_quantile_loss(target, dict(zip(levels, values)))
    return wql, coverage(target, values[2]), values


@pytest.mark.parametrize("family", ["deepar", "tft"])
def test_float32_fit_within_the_training_budget(family):
    series = _bench_series(1100)
    config = TrainingConfig(epochs=1, batch_size=64, window_stride=4, seed=0)
    if family == "deepar":
        make = lambda: DeepARForecaster(**BENCH, num_samples=100, config=config)  # noqa: E731
    else:
        make = lambda: TFTForecaster(**BENCH, quantile_levels=(0.1, 0.5, 0.9), config=config)  # noqa: E731
    served = make().fit(series[:800])
    reference = make()
    with float64_serving(reference):
        reference.fit(series[:800])
        want_wql, want_coverage, want = _held_out(reference, series, 800)
    got_wql, got_coverage, got = _held_out(served, series, 800)
    assert not np.array_equal(got, want)  # two precisions really trained
    assert abs(got_wql - want_wql) / want_wql <= WQL_BUDGET, (got_wql, want_wql)
    assert abs(got_coverage - want_coverage) <= COVERAGE_BUDGET, (got_coverage, want_coverage)
