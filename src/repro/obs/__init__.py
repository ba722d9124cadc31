"""Observability for the autoscaling loop (telemetry on numpy and orjson).

The paper's pitch — robust planning cuts under-provisioning at modest
cost — is only demonstrable if the loop's behaviour is visible.  This
package provides the monitoring substrate RobustScaler/OptScaler-style
production autoscalers rely on, scaled down to a library:

* :class:`MetricsRegistry` with counter / gauge / histogram metrics
  and nested wall-clock ``span()`` timers;
* pluggable sinks (:mod:`repro.obs.sinks`; :class:`JsonlSink` writes
  the stream ``report`` reads);
* streaming **model-health monitors** (:mod:`repro.obs.monitor`):
  windowed quantile calibration, rolling wQL/MAPE, and residual drift
  detection by one :class:`~repro.obs.monitor.CUSUM`, the detector a
  matched-false-alarm trial kept over Page-Hinkley;
* one declarative **rule language** (:mod:`repro.obs.alerts`): alert
  rules and service-level objectives, which compile to rules of the
  same engine, firing structured alert events into the same stream;
* stream summarization for ``repro-autoscale report`` — including the
  model-health timeline and per-decision provenance records.

Instrumented modules (``core.runtime``, ``simulator``, ``forecast``,
``core.evaluation``) write to the ambient registry from
:func:`get_registry`; attach a sink (or install a fresh registry with
:func:`using_registry`) to collect, e.g.::

    from repro import obs

    registry = obs.MetricsRegistry()
    sink = obs.JsonlSink("run.jsonl")
    registry.add_sink(sink)
    monitor = obs.ModelHealthMonitor(window=24, alerts=obs.AlertEngine(
        obs.default_rules(nominal_level=0.9)))
    runtime.monitor = monitor
    with obs.using_registry(registry):
        runtime.run(workload)
    registry.remove_sink(sink)  # writes the counters and gauges
    sink.close()
    print(obs.format_summary(obs.summarize_records(
        obs.read_jsonl("run.jsonl"))))
    print(obs.format_model_health(obs.summarize_model_health(
        obs.read_jsonl("run.jsonl"))))
"""

from .alerts import Alert, AlertEngine, SLOTracker, default_rules, parse_rule
from .monitor import ModelHealthMonitor, WindowStats
from .prometheus import PROMETHEUS_CONTENT_TYPE, parse_exposition, render_prometheus
from .registry import Counter, MetricsRegistry, get_registry, using_registry
from .report import (
    ModelHealthSummary,
    format_model_health,
    format_summary,
    read_jsonl,
    summarize_model_health,
    summarize_records,
)
from .sinks import JsonlSink
from .trace import TraceCollector, render_trace_timeline

__all__ = [
    "MetricsRegistry",
    "Counter",
    "get_registry",
    "using_registry",
    "JsonlSink",
    "ModelHealthMonitor",
    "WindowStats",
    "Alert",
    "AlertEngine",
    "parse_rule",
    "default_rules",
    "ModelHealthSummary",
    "summarize_records",
    "summarize_model_health",
    "read_jsonl",
    "format_summary",
    "format_model_health",
    "SLOTracker",
    "TraceCollector",
    "render_trace_timeline",
    "render_prometheus",
    "parse_exposition",
    "PROMETHEUS_CONTENT_TYPE",
]
