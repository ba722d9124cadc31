"""The paper's core contribution: robust predictive auto-scaling.

Layout mirrors Section III-C:

* :mod:`plan` / :mod:`optimizer` — Definitions 3-6 and their solvers;
* :mod:`uncertainty` — the Eq. 8 uncertainty metric;
* :mod:`policies` — fixed-quantile, uncertainty-aware (Algorithm 1),
  and staircase quantile-selection policies;
* :mod:`manager` / :mod:`autoscaler` — the Robust Auto-Scaling Manager
  and the end-to-end pipeline;
* :mod:`reactive` / :mod:`predictive` — the compared baselines;
* :mod:`evaluation` — the rolling test-trace evaluation harness.
"""

from .autoscaler import RobustPredictiveAutoscaler
from .evaluation import decision_points, evaluate_strategy
from .manager import RobustAutoScalingManager
from .optimizer import solve_closed_form, solve_lp, solve_with_ramp_limits
from .plan import Planner, ScalingPlan, evaluate_plan, required_nodes
from .policies import FixedQuantilePolicy, StaircasePolicy, UncertaintyAwarePolicy
from .predictive import PointForecastScaler
from .reactive import ReactiveAvgScaler, ReactiveMaxScaler
from .runtime import AutoscalingRuntime, Decision, StepResult
from .uncertainty import quantile_uncertainty

__all__ = [
    "Planner",
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
    "decision_points",
    "AutoscalingRuntime",
    "Decision",
    "StepResult",
]
