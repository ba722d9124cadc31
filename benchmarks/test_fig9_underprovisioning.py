"""Figure 9 — under-provisioning rate across all scaling strategies.

The paper's headline comparison on both traces: reactive scalers
(Reactive-Max, Reactive-Avg), point-forecast scalers (QB5000,
TFT-point), their CloudScale-style padding enhancements, and the robust
quantile strategies DeepAR-tau / TFT-tau for tau in {0.6, 0.8, 0.9}.

Every row is one :func:`~repro.core.evaluate_strategy` run: the
runtime replans every ``EVAL_STRIDE`` steps and each row is scored on
the same steps of the test split, once each.  The padding rows learn
their margin from the unpadded forecast's errors on each next context;
the DeepAR rows reseed the sampler before each tau, so the three taus
read the same sample paths.

Expected shape:
* predictive strategies beat reactive ones (inherent reactive lag);
* quantile strategies beat point strategies, even when the quantile
  model (DeepAR) is less accurate than the point model (TFT);
* padding improves point forecasting but does not catch the robust
  quantile strategies;
* under-provisioning falls monotonically with tau.
"""

from repro.core import (
    FixedQuantilePolicy,
    PointForecastScaler,
    ReactiveAvgScaler,
    ReactiveMaxScaler,
    RobustPredictiveAutoscaler,
    evaluate_strategy,
)
from repro.forecast import PaddedPointForecaster

from benchmarks.helpers import CONTEXT, EVAL_STRIDE, HORIZON, THETA, print_header

TAUS = (0.6, 0.8, 0.9)
SAMPLER_SEED = 0


def _rates(planner, test_series, train_length):
    ev = evaluate_strategy(
        planner, test_series, CONTEXT, HORIZON, THETA,
        replan_every=EVAL_STRIDE, series_start_index=train_length,
    )
    return ev.report.under_provisioning_rate, ev.report.over_provisioning_rate


def test_fig9(benchmark, trace_name, test_series, train_series, qb5000, tft_point, deepar, tft):
    train_length = len(train_series)
    rows: list[tuple[str, float, float]] = []

    for scaler in (ReactiveMaxScaler(threshold=THETA), ReactiveAvgScaler(threshold=THETA)):
        rows.append((scaler.name, *_rates(scaler, test_series, train_length)))

    for name, forecaster, pad in [
        ("QB5000", qb5000, False),
        ("QB5000-padding", qb5000, True),
        ("TFT-point", tft_point, False),
        ("TFT-point-padding", tft_point, True),
    ]:
        if pad:
            forecaster = PaddedPointForecaster(forecaster, window=HORIZON * 4, percentile=0.95)
        scaler = PointForecastScaler(forecaster, THETA, name=name)
        rows.append((name, *_rates(scaler, test_series, train_length)))

    for model, label in ((deepar, "DeepAR"), (tft, "TFT")):
        for tau in TAUS:
            if hasattr(model, "reseed_sampler"):
                model.reseed_sampler(SAMPLER_SEED)
            planner = RobustPredictiveAutoscaler(model, THETA, FixedQuantilePolicy(tau))
            rows.append((f"{label}-{tau}", *_rates(planner, test_series, train_length)))

    print_header(
        f"Figure 9 — under-provisioning rates ({trace_name})",
        f"theta = {THETA}% CPU per node, horizon {HORIZON} steps, "
        f"replan every {EVAL_STRIDE}",
    )
    print(f"{'strategy':<20} {'under-prov':>11} {'over-prov':>10}")
    for name, under, over in rows:
        print(f"{name:<20} {under:>11.4f} {over:>10.4f}")

    by_name = {name: under for name, under, _ in rows}
    # Predictive beats reactive (reactive lag).
    assert by_name["TFT-0.9"] < by_name["Reactive-Avg"]
    # Quantile strategies beat raw point strategies.
    assert by_name["TFT-0.9"] < by_name["TFT-point"]
    assert by_name["DeepAR-0.9"] < by_name["TFT-point"]
    # Padding helps point forecasting but monotone tau ordering holds.
    assert by_name["TFT-point-padding"] <= by_name["TFT-point"] + 1e-9
    for label in ("DeepAR", "TFT"):
        taus = [by_name[f"{label}-{tau}"] for tau in TAUS]
        assert taus == sorted(taus, reverse=True) or max(taus) - min(taus) < 1e-9

    benchmark(lambda: _rates(ReactiveMaxScaler(threshold=THETA), test_series, train_length))
