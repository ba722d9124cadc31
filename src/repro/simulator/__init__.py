"""Disaggregated cloud-database cluster simulator.

Substitutes for the production environment behind the paper's
experiments: compute nodes attach to shared storage with seconds-scale
warm-up (Figure 5), and :func:`replay_plan` enacts a scaling plan on
them against an actual workload trace, one interval at a time.
"""

from .qos import MMcQueue, evaluate_qos
from .replay import replay_plan
from .storage import SharedStorage

__all__ = [
    "SharedStorage",
    "replay_plan",
    "MMcQueue",
    "evaluate_qos",
]
