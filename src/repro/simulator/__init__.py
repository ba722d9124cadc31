"""Disaggregated cloud-database cluster simulator.

Substitutes for the production environment behind the paper's
experiments: an event-driven cluster where compute nodes attach to
shared storage with seconds-scale warm-up (Figure 5), on which scaling
plans are replayed against actual workload traces.
"""

from .cluster import DisaggregatedCluster
from .engine import Event, Simulation
from .qos import MMcQueue, evaluate_qos
from .replay import replay_plan
from .storage import SharedStorage

__all__ = [
    "Simulation",
    "Event",
    "SharedStorage",
    "DisaggregatedCluster",
    "replay_plan",
    "MMcQueue",
    "evaluate_qos",
]
