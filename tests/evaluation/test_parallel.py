"""Determinism contract of ``backtest``.

A sampling forecaster is reseeded per decision window from (seed,
window), so the forecasts of a backtest depend on nothing else: not on
earlier runs in the same process, and not on an attached tracer.  (The
module keeps its name from when it also held a process-pool arm.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.backtest import backtest
from repro.forecast import DeepARForecaster, TrainingConfig
from repro.obs import MetricsRegistry, TraceCollector, using_registry
from repro.obs.sinks import InMemorySink

CONTEXT, HORIZON = 36, 12


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    series = 100 + 20 * np.sin(np.arange(700) * 2 * np.pi / 144) + rng.normal(0, 3, 700)
    forecaster = DeepARForecaster(
        CONTEXT, HORIZON, hidden_size=8, num_layers=1, num_samples=20,
        config=TrainingConfig(epochs=1, seed=0),
    ).fit(series[:550])
    return forecaster, series[550:]


def _run(forecaster, test_values):
    return backtest(
        forecaster, test_values, CONTEXT, HORIZON, (0.1, 0.5, 0.9),
        series_start_index=550,
    )


def test_backtest_deterministic_across_repeat_runs(fitted):
    forecaster, test_values = fitted
    first = _run(forecaster, test_values)
    second = _run(forecaster, test_values)
    assert len(first.forecasts) == len(second.forecasts) > 1
    for a, b in zip(first.forecasts, second.forecasts):
        assert np.array_equal(a.values, b.values)


def test_backtest_results_identical_with_tracing_attached(fitted):
    """Tracing observes, never perturbs: traced == untraced bit-for-bit."""
    forecaster, test_values = fitted
    plain = _run(forecaster, test_values)
    registry = MetricsRegistry(sinks=[InMemorySink()])
    collector = TraceCollector()
    registry.set_tracer(collector)
    collector.begin(0)
    with using_registry(registry):
        traced = _run(forecaster, test_values)
    trace = collector.end()
    assert plain.points == traced.points
    for a, b in zip(plain.forecasts, traced.forecasts):
        assert np.array_equal(a.values, b.values)
    # One "backtest" root, and one "backtest/predict" child per window.
    spans = trace["spans"]
    assert trace["status"] == "ok"
    assert [s["name"] for s in spans] == ["backtest"] + ["backtest/predict"] * len(plain.points)
    assert all(span["parent"] == 0 for span in spans[1:])
