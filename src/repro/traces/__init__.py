"""Workload traces: synthetic generators, real-format loaders, containers."""

from .alibaba import alibaba_like_trace, load_machine_usage_csv
from .anomalies import (
    inject_flash_crowd,
    inject_level_shift,
    inject_noise_burst,
    inject_outage_dip,
)
from .dataset import StandardScaler, Trace
from .google import google_like_trace, load_task_usage_csv
from .synthetic import STEPS_PER_DAY, STEPS_PER_WEEK

__all__ = [
    "Trace",
    "StandardScaler",
    "STEPS_PER_DAY",
    "STEPS_PER_WEEK",
    "alibaba_like_trace",
    "load_machine_usage_csv",
    "google_like_trace",
    "load_task_usage_csv",
    "inject_level_shift",
    "inject_flash_crowd",
    "inject_outage_dip",
    "inject_noise_burst",
]
