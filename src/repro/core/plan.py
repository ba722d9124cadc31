"""Scaling plans and their provisioning-quality evaluation.

A :class:`ScalingPlan` is the output of every auto-scaling strategy: a
number of compute nodes per future time step, together with the workload
thresholds the plan was built against.  :func:`evaluate_plan` scores a
plan against what actually happened, producing the paper's two headline
metrics (Section IV-C):

* **under-provisioning rate** — fraction of steps where the allocated
  nodes cannot keep average per-node workload below the threshold;
* **over-provisioning rate** — fraction of steps where more nodes than
  the minimum necessary were allocated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..nn.serialization import _decode_value, _encode_value

__all__ = [
    "Planner",
    "ScalingPlan",
    "ProvisioningReport",
    "required_nodes",
    "evaluate_plan",
]


def required_nodes(workload: np.ndarray, threshold: float | np.ndarray) -> np.ndarray:
    """Minimum node count keeping ``workload / nodes <= threshold``.

    This is the exact solution of the per-step constraint of
    Definition 3: ``c_t = ceil(w_t / theta_t)``, with at least one node
    always provisioned (a database cannot run on zero nodes).
    """
    workload = np.asarray(workload, dtype=np.float64)
    threshold = np.asarray(threshold, dtype=np.float64)
    if (threshold <= 0).any():
        raise ValueError("thresholds must be strictly positive")
    if (workload < 0).any():
        raise ValueError("workloads must be non-negative")
    counts = np.ceil(workload / threshold - 1e-12).astype(np.int64)
    return np.maximum(counts, 1)


@dataclass
class ScalingPlan:
    """Node allocations for a decision horizon.

    Attributes
    ----------
    nodes:
        Integer node counts per step, shape (H,).
    threshold:
        The workload threshold(s) theta_t used to build the plan.
    strategy:
        Human-readable strategy label (e.g. ``"TFT-0.9"``).
    quantile_levels:
        Per-step quantile level used (for adaptive strategies this
        records Algorithm 1's choices).
    """

    nodes: np.ndarray
    threshold: float | np.ndarray
    strategy: str = ""
    quantile_levels: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        if self.nodes.ndim != 1:
            raise ValueError("nodes must be 1-D")
        if (self.nodes < 1).any():
            raise ValueError("every step must allocate at least one node")

    @property
    def horizon(self) -> int:
        return len(self.nodes)

    @property
    def total_nodes(self) -> int:
        """The objective of Definition 3/4: total node-steps allocated."""
        return int(self.nodes.sum())

    def to_state(self) -> dict:
        """JSON-safe snapshot of the plan, losslessly reversible.

        Numpy arrays (including arrays inside :attr:`metadata`, such as
        the ``forecast_values`` grid the health monitor feeds from) are
        written as raw-byte records (see
        :func:`~repro.nn.serialization._encode_value`), so
        :meth:`from_state` restores them bit for bit with their dtype
        and shape — the checkpoint/restore path depends on the round
        trip being exact.
        """
        return {
            "nodes": _encode_value(self.nodes),
            "threshold": _encode_value(self.threshold),
            "strategy": self.strategy,
            "quantile_levels": (
                _encode_value(np.asarray(self.quantile_levels, dtype=np.float64))
                if self.quantile_levels is not None
                else None
            ),
            "metadata": {k: _encode_value(v) for k, v in self.metadata.items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "ScalingPlan":
        """Rebuild a plan written by :meth:`to_state`."""
        return cls(
            nodes=_decode_value(state["nodes"]),
            threshold=_decode_value(state["threshold"]),
            strategy=state["strategy"],
            quantile_levels=_decode_value(state["quantile_levels"]),
            metadata={
                k: _decode_value(v) for k, v in state["metadata"].items()
            },
        )


@runtime_checkable
class Planner(Protocol):
    """The planning contract every auto-scaling strategy satisfies.

    A planner maps a context window of observed workloads to a
    :class:`ScalingPlan` for the steps that follow it.  The contract is
    structural (:class:`typing.Protocol`): conforming classes —
    :class:`~repro.core.autoscaler.RobustPredictiveAutoscaler`,
    :class:`~repro.core.predictive.PointForecastScaler`, the reactive
    scalers, ensembles — need not inherit from anything.

    ``start_index`` is the absolute index of ``context[0]`` in the
    original trace; planners whose forecasters use calendar features
    need it for phase alignment and all others must accept (and may
    ignore) it.
    """

    @property
    def name(self) -> str:
        """Human-readable strategy label (stamped onto plans/reports)."""
        ...

    def plan(self, context: np.ndarray, start_index: int = 0) -> ScalingPlan:
        """Commit node allocations for the horizon following ``context``."""
        ...


def _forecaster_owner(planner):
    """The object whose ``.forecaster`` is the live model, or None.

    Walks ``.inner`` delegation (fault wrappers).  The checkpoint layer
    reads the forecaster off the owner; adaptation swaps the attribute.
    """
    seen = set()
    node = planner
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if getattr(node, "forecaster", None) is not None:
            return node
        node = getattr(node, "inner", None)
    return None


@dataclass(frozen=True)
class ProvisioningReport:
    """Plan-vs-reality scorecard."""

    under_provisioning_rate: float
    over_provisioning_rate: float
    total_nodes: int
    minimum_nodes: int
    violation_steps: int
    mean_violation_magnitude: float
    mean_excess_nodes: float

    @property
    def exact_rate(self) -> float:
        """Fraction of steps allocated exactly the minimum."""
        return 1.0 - self.under_provisioning_rate - self.over_provisioning_rate


def evaluate_plan(plan: ScalingPlan, actual_workload: np.ndarray) -> ProvisioningReport:
    """Score ``plan`` against the workload that actually materialised.

    A step is *under-provisioned* when the plan's nodes push average
    per-node workload above the threshold (equivalently: fewer nodes than
    :func:`required_nodes`), and *over-provisioned* when it allocates
    strictly more than the minimum.

    ``mean_violation_magnitude`` averages, over violating steps, how far
    per-node workload exceeded the threshold (in workload units);
    ``mean_excess_nodes`` averages surplus nodes over all steps.
    """
    actual_workload = np.asarray(actual_workload, dtype=np.float64)
    if actual_workload.shape != plan.nodes.shape:
        raise ValueError(
            f"actual workload shape {actual_workload.shape} does not match "
            f"plan horizon {plan.nodes.shape}"
        )
    needed = required_nodes(actual_workload, plan.threshold)
    under = plan.nodes < needed
    over = plan.nodes > needed
    threshold = np.broadcast_to(
        np.asarray(plan.threshold, dtype=np.float64), actual_workload.shape
    )
    per_node = actual_workload / plan.nodes
    violation = np.where(under, per_node - threshold, 0.0)
    return ProvisioningReport(
        under_provisioning_rate=float(under.mean()),
        over_provisioning_rate=float(over.mean()),
        total_nodes=plan.total_nodes,
        minimum_nodes=int(needed.sum()),
        violation_steps=int(under.sum()),
        mean_violation_magnitude=float(violation[under].mean()) if under.any() else 0.0,
        mean_excess_nodes=float((plan.nodes - needed).clip(min=0).mean()),
    )
