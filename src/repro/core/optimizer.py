"""Solvers for the auto-scaling optimization problems (Definitions 3-6).

The unconstrained problem ``min sum c_t  s.t.  w_t / c_t <= theta_t``
is separable per step, so the exact optimum is closed form:
``c_t = ceil(w_t / theta_t)``.  The paper notes the deterministic
reformulation "can be solved using standard linear programming solvers";
:func:`solve_lp` does exactly that (scipy ``linprog`` + ceiling), and the
test suite asserts both solvers agree — the closed form is what the
library uses in production paths.

For the Section V-A discussion (thrashing control), the constrained
variant bounds how many nodes may be added/removed per step.  Because
the objective is separable and increasing, the pointwise-minimal feasible
allocation is optimal; it is computed exactly by a backward+forward
propagation of the ramp constraints — no solver needed.
"""

from __future__ import annotations

import numpy as np

from .plan import ScalingPlan, required_nodes

__all__ = ["solve_closed_form", "solve_lp", "solve_with_ramp_limits"]


def solve_closed_form(
    workload: np.ndarray, threshold: float | np.ndarray, strategy: str = "robust"
) -> ScalingPlan:
    """Exact solution of Definition 3/6: per-step ceilings.

    ``workload`` is whatever upper bound the caller chose — the point
    forecast (Definition 3), a fixed-quantile forecast (Eq. 6), or a
    per-step adaptive quantile forecast (Eq. 7).
    """
    return ScalingPlan(
        nodes=required_nodes(workload, threshold),
        threshold=threshold,
        strategy=strategy,
    )


def solve_lp(
    workload: np.ndarray, threshold: float | np.ndarray, strategy: str = "robust-lp"
) -> ScalingPlan:
    """Definition 3/6 via scipy's linear-programming solver.

    The LP relaxation ``min sum c_t  s.t.  c_t >= w_t / theta_t, c_t >= 1``
    has the obvious optimum at the bound; node counts are integral, so the
    relaxed solution is ceiled.  Provided to mirror the paper's statement
    and as a cross-check of :func:`solve_closed_form`.
    """
    # Imported here: only this reference solver needs ``scipy.optimize``,
    # and at module level it is paid by every ``import repro``.
    from scipy.optimize import linprog

    workload = np.asarray(workload, dtype=np.float64)
    threshold_arr = np.broadcast_to(
        np.asarray(threshold, dtype=np.float64), workload.shape
    )
    horizon = len(workload)
    lower = np.maximum(workload / threshold_arr, 1.0)
    result = linprog(
        c=np.ones(horizon),
        bounds=list(zip(lower, [None] * horizon)),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP solver failed: {result.message}")
    nodes = np.ceil(result.x - 1e-9).astype(np.int64)
    return ScalingPlan(nodes=np.maximum(nodes, 1), threshold=threshold, strategy=strategy)


def solve_with_ramp_limits(
    workload: np.ndarray,
    threshold: float | np.ndarray,
    max_scale_out: int | None = None,
    max_scale_in: int | None = None,
    initial_nodes: int | None = None,
    strategy: str = "robust-ramped",
) -> ScalingPlan:
    """Thrashing-controlled variant (Section V-A).

    Adds ramp constraints to Definition 6, each side independently
    optional (``None`` leaves that direction unbounded — a legitimate
    configuration, e.g. capping scale-in for thrashing control while
    letting scale-out react freely):

    * ``c_t - c_{t-1} <= max_scale_out`` (limited node additions/step),
    * ``c_{t-1} - c_t <= max_scale_in`` (limited removals/step),
    * optionally anchored at the currently running ``initial_nodes``.

    The demand floor ``d_t = ceil(w_t/theta_t)`` is first raised by a
    backward pass (a step must hold enough nodes to be able to *reach*
    the next step's floor under the scale-out limit) and a forward pass
    (a step cannot drop below the previous step's level minus the
    scale-in limit).  The result is the pointwise least feasible
    allocation, which is optimal because the objective is a sum of
    increasing per-step costs.  With both limits ``None`` the passes
    are no-ops and the result equals :func:`solve_closed_form`.

    Raises
    ------
    ValueError
        If ``initial_nodes`` makes the first step's demand unreachable
        (the workload genuinely cannot be served under the ramp limit).
    """
    for side, limit in (("max_scale_out", max_scale_out), ("max_scale_in", max_scale_in)):
        if limit is not None and limit < 1:
            raise ValueError(f"{side} must be >= 1 node per step (or None)")
    nodes = required_nodes(workload, threshold)
    steps = np.arange(len(nodes))

    # Each pass is ``n_t = max(n_t, n_{t-1} - k)`` in closed form,
    # ``max_{s <= t}(n_s + k s) - k t``: exact on integers.
    # Backward (time reversed): step t can ramp up to step t+1's floor.
    if max_scale_out is not None:
        ramp = max_scale_out * steps
        nodes = (np.maximum.accumulate(nodes[::-1] + ramp) - ramp)[::-1]
    # Forward: honour the scale-in limit (can't shed more than allowed).
    if initial_nodes is not None:
        if max_scale_out is not None and nodes[0] > initial_nodes + max_scale_out:
            raise ValueError(
                f"demand of {nodes[0]} nodes at step 0 unreachable from "
                f"{initial_nodes} under max_scale_out={max_scale_out}"
            )
        if max_scale_in is not None:
            nodes[0] = max(nodes[0], initial_nodes - max_scale_in)
    if max_scale_in is not None:
        ramp = max_scale_in * steps
        nodes = np.maximum.accumulate(nodes + ramp) - ramp

    plan = ScalingPlan(nodes=nodes, threshold=threshold, strategy=strategy)
    plan.metadata["max_scale_out"] = max_scale_out
    plan.metadata["max_scale_in"] = max_scale_in
    if initial_nodes is not None:
        plan.metadata["initial_nodes"] = initial_nodes
    return plan
