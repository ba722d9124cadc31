"""repro — Robust Auto-Scaling with Probabilistic Workload Forecasting.

A from-scratch reproduction of the ICDE 2024 paper of the same name:
probabilistic workload forecasters (ARIMA, MLP, DeepAR, TFT, QB5000),
the robust auto-scaling optimizer with its uncertainty-aware adaptive
extension, reactive and point-forecast baselines, a disaggregated
cloud-database cluster simulator, and workload-trace generators.

Quick start::

    from repro import (alibaba_like_trace, TFTForecaster,
                       RobustPredictiveAutoscaler, FixedQuantilePolicy)

    trace = alibaba_like_trace(seed=7)
    train, test = trace.split(test_fraction=0.2)
    forecaster = TFTForecaster(context_length=72, horizon=72)
    scaler = RobustPredictiveAutoscaler(
        forecaster, threshold=60.0, policy=FixedQuantilePolicy(0.9)
    ).fit(train.values)
    plan = scaler.plan(train.values[-72:], start_index=len(train) - 72)
"""

from . import faults, obs
from .core import (
    AutoscalingRuntime,
    FixedQuantilePolicy,
    PointForecastScaler,
    ReactiveAvgScaler,
    ReactiveMaxScaler,
    RobustAutoScalingManager,
    RobustPredictiveAutoscaler,
    ScalingPlan,
    StaircasePolicy,
    StepResult,
    UncertaintyAwarePolicy,
    evaluate_plan,
    evaluate_strategy,
    quantile_uncertainty,
    required_nodes,
    solve_closed_form,
    solve_lp,
    solve_with_ramp_limits,
)
from .forecast import (
    ARIMAForecaster,
    DeepARForecaster,
    Forecaster,
    MLPForecaster,
    MLPQuantileForecaster,
    PaddedPointForecaster,
    QB5000Forecaster,
    QuantileForecast,
    SeasonalNaiveForecaster,
    TFTForecaster,
    TFTPointForecaster,
    TrainingConfig,
)
from .evaluation import backtest, chaos_run
from .faults import FaultSchedule
from .service import ServiceRuntime
from .traces import Trace, alibaba_like_trace, google_like_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # traces
    "Trace",
    "alibaba_like_trace",
    "google_like_trace",
    # forecasting
    "QuantileForecast",
    "Forecaster",
    "TrainingConfig",
    "ARIMAForecaster",
    "MLPForecaster",
    "DeepARForecaster",
    "TFTForecaster",
    "QB5000Forecaster",
    "MLPQuantileForecaster",
    "TFTPointForecaster",
    "PaddedPointForecaster",
    "SeasonalNaiveForecaster",
    # observability
    "obs",
    # fault injection
    "faults",
    "FaultSchedule",
    # evaluation harnesses
    "backtest",
    "chaos_run",
    # core
    "ScalingPlan",
    "required_nodes",
    "evaluate_plan",
    "solve_closed_form",
    "solve_lp",
    "solve_with_ramp_limits",
    "quantile_uncertainty",
    "FixedQuantilePolicy",
    "UncertaintyAwarePolicy",
    "StaircasePolicy",
    "RobustAutoScalingManager",
    "RobustPredictiveAutoscaler",
    "PointForecastScaler",
    "ReactiveMaxScaler",
    "ReactiveAvgScaler",
    "evaluate_strategy",
    "AutoscalingRuntime",
    "StepResult",
    # service daemon
    "ServiceRuntime",
]
