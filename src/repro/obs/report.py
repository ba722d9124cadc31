"""Summarize telemetry event streams (the ``report`` CLI's engine).

Consumes the flat records produced by
:class:`~repro.obs.registry.MetricsRegistry` — from a JSON-lines file,
an :class:`~repro.obs.sinks.InMemorySink`, or any iterable of dicts —
and reduces them to the aggregate view a human wants after a run:
per-phase span timings (``span`` records plus the spans inside ``trace``
records), counter totals and last gauge values (``metrics`` records, and
the ``trace`` records of daemon ticks, which carry their tick's flush),
and histogram statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .registry import format_metric_key

__all__ = [
    "KNOWN_KINDS",
    "SpanSummary",
    "DistributionSummary",
    "TelemetrySummary",
    "ModelHealthSummary",
    "summarize_records",
    "summarize_model_health",
    "read_jsonl",
    "format_summary",
    "format_model_health",
]


@dataclass
class SpanSummary:
    """Aggregate wall-clock time spent in one span path."""

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total_s += duration
        self.max_s = max(self.max_s, duration)


@dataclass
class DistributionSummary:
    """Aggregate of one histogram's observations."""

    values: list[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else 0.0

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.values, q)) if self.values else 0.0

    @property
    def max(self) -> float:
        return float(np.max(self.values)) if self.values else 0.0


#: Record kinds some part of the reporting pipeline understands.
#: Anything else is surfaced as a per-kind count, not dropped silently.
KNOWN_KINDS = frozenset(
    {
        "metrics",
        "histogram",
        "span",
        "model_health",
        "alert",
        "provenance",
        "decision",
        "slo",
        "trace",
        "adaptation",
    }
)


@dataclass
class TelemetrySummary:
    """Everything a telemetry stream said, aggregated."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, DistributionSummary] = field(default_factory=dict)
    spans: dict[str, SpanSummary] = field(default_factory=dict)
    records: int = 0
    unknown_kinds: dict[str, int] = field(default_factory=dict)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets (e.g. all strategies)."""
        return sum(
            value
            for key, value in self.counters.items()
            if key == name or key.startswith(name + "{")
        )


def summarize_records(records: Iterable[dict]) -> TelemetrySummary:
    """Reduce an event stream to a :class:`TelemetrySummary`.

    Raises :class:`ValueError` on a span without ``duration_ns`` (a file
    written in the older float-seconds span shape).
    """
    summary = TelemetrySummary()
    for record in records:
        summary.records += 1
        kind = record.get("kind")
        name = record.get("name", "")
        key = format_metric_key(name, record.get("labels") or {})
        if kind == "metrics" or kind == "trace":
            # Each flush carries current values; the last one wins.  A
            # daemon tick's flush rides in its trace record.  A
            # non-finite gauge was written as null and is left out.
            summary.counters.update(record.get("counters") or {})
            summary.gauges.update(
                (gauge, value)
                for gauge, value in (record.get("gauges") or {}).items()
                if value is not None
            )
        if kind == "histogram":
            summary.histograms.setdefault(key, DistributionSummary()).values.append(
                float(record.get("value", 0.0))
            )
        elif kind in ("span", "trace"):
            # A span is written once, in one shape: as its own record,
            # or inside the trace it closed in.
            for span in (record,) if kind == "span" else record.get("spans") or ():
                if "duration_ns" not in span:
                    raise ValueError(
                        f"a {kind} record has a span without duration_ns: the file "
                        f"was written in the older float-seconds span shape "
                        f"(duration_s); write a fresh one"
                    )
                span_key = format_metric_key(
                    span.get("name", ""), span.get("labels") or {}
                )
                summary.spans.setdefault(span_key, SpanSummary()).add(
                    span["duration_ns"] / 1e9
                )
        elif kind not in KNOWN_KINDS:
            label = str(kind) if kind is not None else "<missing>"
            summary.unknown_kinds[label] = summary.unknown_kinds.get(label, 0) + 1
    return summary


@dataclass
class ModelHealthSummary:
    """The model-health slice of a telemetry stream.

    Five record families, in stream order: per-window calibration
    records and drift events from
    :class:`~repro.obs.monitor.ModelHealthMonitor`, fired alerts from
    :class:`~repro.obs.alerts.AlertEngine`, model-swap transitions from
    :class:`~repro.adaptation.AdaptationManager`, and per-decision
    provenance records from
    :class:`~repro.core.runtime.AutoscalingRuntime`.
    """

    windows: list[dict] = field(default_factory=list)
    drifts: list[dict] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)
    adaptation: list[dict] = field(default_factory=list)
    provenance: list[dict] = field(default_factory=list)
    slos: dict[str, dict] = field(default_factory=dict)  # latest per objective

    def __bool__(self) -> bool:
        return bool(
            self.windows
            or self.drifts
            or self.alerts
            or self.adaptation
            or self.provenance
            or self.slos
        )


def summarize_model_health(records: Iterable[dict]) -> ModelHealthSummary:
    """Collect window/drift/alert/adaptation/provenance/slo records."""
    health = ModelHealthSummary()
    for record in records:
        kind = record.get("kind")
        if kind == "model_health":
            if record.get("name") == "monitor.window":
                health.windows.append(record)
            elif record.get("name") == "monitor.drift":
                health.drifts.append(record)
        elif kind == "alert":
            health.alerts.append(record)
        elif kind == "adaptation":
            health.adaptation.append(record)
        elif kind == "provenance":
            health.provenance.append(record)
        elif kind == "slo":
            health.slos[record.get("objective", record.get("name", "?"))] = record
    return health


def _coverage_columns(windows: list[dict], max_columns: int = 5) -> list[str]:
    """Which coverage levels to show: all if few, else the upper tail."""
    seen: list[str] = []
    for window in windows:
        for key in window.get("coverage", {}):
            if key not in seen:
                seen.append(key)
    seen.sort(key=float)
    if len(seen) <= max_columns:
        return seen
    # Planning lives in the upper tail — prefer the highest levels, but
    # keep the median as an anchor if present.
    tail = seen[-(max_columns - 1) :]
    return (["0.5"] if "0.5" in seen and "0.5" not in tail else []) + tail


def format_model_health(
    health: ModelHealthSummary, max_provenance: int = 12
) -> str:
    """Render the model-health timeline as aligned plain-text tables."""
    lines: list[str] = ["model health"]

    if health.windows:
        levels = _coverage_columns(health.windows)
        steps = health.windows[0].get("steps", "?")
        lines.append("")
        lines.append(f"  calibration over time ({steps} steps/window)")
        header = f"  {'win':>4} {'t-range':>13}"
        for level in levels:
            header += f" {'cov@' + level:>9}"
        header += f" {'cal.err':>8} {'mean_wQL':>9} {'MAPE':>7} {'drift':>6}"
        if any("violation_rate" in w for w in health.windows):
            header += f" {'viol.':>6}"
        show_degraded = any(w.get("degraded_intervals") for w in health.windows)
        if show_degraded:
            header += f" {'degr.':>6}"
        lines.append(header)
        for window in health.windows:
            row = (
                f"  {window.get('window', '?'):>4} "
                f"{str(window.get('start_index', '?')) + '-' + str(window.get('end_index', '?')):>13}"
            )
            coverage = window.get("coverage", {})
            for level in levels:
                value = coverage.get(level)
                row += f" {value:>9.3f}" if value is not None else f" {'-':>9}"
            row += (
                f" {window.get('calibration_error', 0.0):>8.3f}"
                f" {window.get('mean_wql', 0.0):>9.4f}"
                f" {window.get('mape', 0.0):>7.3f}"
                f" {window.get('drift_events', 0):>6}"
            )
            if "violation_rate" in window:
                row += f" {window['violation_rate']:>6.2f}"
            elif any("violation_rate" in w for w in health.windows):
                row += f" {'-':>6}"
            if show_degraded:
                row += f" {window.get('degraded_intervals', 0):>6}"
            lines.append(row)

    if health.drifts:
        lines.append("")
        lines.append("  drift events")
        for drift in health.drifts:
            lines.append(
                f"  t={drift.get('time_index', '?'):<6} "
                f"score={drift.get('score', 0.0):<8.2f} "
                f"direction={drift.get('direction', '?')}"
            )

    if health.alerts:
        lines.append("")
        lines.append("  alerts")
        for alert in health.alerts:
            lines.append(
                f"  [{alert.get('severity', 'warning'):<8}] "
                f"{alert.get('message', alert.get('name', '?'))}"
            )

    if health.adaptation:
        lines.append("")
        lines.append("  adaptation timeline")
        for event in health.adaptation:
            lines.append(
                f"  t={event.get('tick', '-'):<6} "
                f"{event.get('action', '?'):<22} "
                f"{event.get('model') or '-':<24} "
                f"{event.get('reason') or ''}".rstrip()
            )

    if health.slos:
        lines.append("")
        lines.append("  SLO error budgets (latest window)")
        for objective, entry in health.slos.items():
            state = "ok  " if entry.get("healthy", True) else "FIRE"
            if entry.get("slo_kind") == "latency":
                value = entry.get("value_s")
                shown_value = f"{value:.3f}s" if value is not None else "-"
                detail = (
                    f"p{int(entry.get('quantile', 0.99) * 100)} {shown_value} "
                    f"vs {entry.get('threshold_s', 0.0):g}s"
                )
            else:
                consumed = entry.get("budget_consumed", 0.0) or 0.0
                burns = entry.get("burn", {})
                burn_bits = " ".join(
                    f"{severity[:4]} {stats.get('long_burn', 0.0):.1f}x"
                    for severity, stats in burns.items()
                )
                detail = f"budget used {consumed * 100:5.1f}%  burn {burn_bits}"
            lines.append(f"  [{state}] {objective:<38} {detail}")

    if health.provenance:
        lines.append("")
        shown = health.provenance[-max_provenance:]
        label = (
            f"  decisions (last {len(shown)} of {len(health.provenance)})"
            if len(shown) < len(health.provenance)
            else f"  decisions ({len(health.provenance)})"
        )
        lines.append(label)
        lines.append(
            f"  {'t':>6} {'source':<18} {'tau':>11} {'unc.mean':>9} "
            f"{'bound.max':>10} {'clip':>5} {'nodes[0]':>9}"
        )
        for record in shown:
            tau_min = record.get("tau_min")
            tau_max = record.get("tau_max")
            if tau_min is None:
                tau = "-"
            elif tau_min == tau_max:
                tau = f"{tau_min:g}"
            else:
                tau = f"{tau_min:g}-{tau_max:g}"
            unc = record.get("uncertainty_mean")
            bound = record.get("bound_max")
            lines.append(
                f"  {record.get('time_index', '?'):>6} "
                f"{record.get('source', '?'):<18} "
                f"{tau:>11} "
                + (f"{unc:>9.2f} " if unc is not None else f"{'-':>9} ")
                + (f"{bound:>10.1f} " if bound is not None else f"{'-':>10} ")
                + f"{record.get('ramp_clipped_steps', 0):>5} "
                + f"{record.get('nodes_first', '?'):>9}"
            )

    return "\n".join(lines)


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a telemetry JSON-lines file, skipping malformed lines."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def _parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`format_metric_key`: ``name{k=v,...}`` -> (name, labels)."""
    if "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels = dict(part.split("=", 1) for part in inner.rstrip("}").split(",") if part)
    return name, labels


def _training_section(summary: TelemetrySummary) -> list[str]:
    """Per-model training table: minibatches run, and how fast.

    One row per ``forecast.batch_seconds`` histogram — ``fit`` observes
    it once per minibatch, labelled with the forecaster class.
    """
    rows = {}
    for key, hist in summary.histograms.items():
        name, labels = _parse_metric_key(key)
        if name == "forecast.batch_seconds":
            rows[labels.get("model", "?")] = hist
    if not rows:
        return []

    lines = ["", "training (per model)"]
    lines.append(
        f"  {'model':<24} {'batches':>8} {'mean ms':>9} {'p50 ms':>9} {'max ms':>9}"
    )
    for model, hist in sorted(rows.items()):
        lines.append(
            f"  {model:<24} {hist.count:>8} {hist.mean * 1e3:>9.2f} "
            f"{hist.quantile(0.5) * 1e3:>9.2f} {hist.max * 1e3:>9.2f}"
        )
    return lines


def format_summary(summary: TelemetrySummary) -> str:
    """Render the aggregate view as an aligned plain-text table."""
    lines: list[str] = [f"telemetry summary ({summary.records} records)"]
    if summary.unknown_kinds:
        kinds = ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(summary.unknown_kinds.items())
        )
        lines.append(
            f"  note: skipped records of unknown kind ({kinds}) — "
            f"likely written by a newer version, or by one from before "
            f"counters and gauges moved into `metrics` records"
        )
    lines.extend(_training_section(summary))

    if summary.spans:
        lines.append("")
        lines.append("phase timings (spans)")
        lines.append(f"  {'span':<40} {'count':>7} {'total s':>10} {'mean s':>10} {'max s':>10}")
        for key in sorted(summary.spans):
            s = summary.spans[key]
            lines.append(
                f"  {key:<40} {s.count:>7} {s.total_s:>10.4f} {s.mean_s:>10.4f} {s.max_s:>10.4f}"
            )

    if summary.counters:
        lines.append("")
        lines.append("counters")
        width = max(len(k) for k in summary.counters)
        for key in sorted(summary.counters):
            lines.append(f"  {key:<{width}} {summary.counters[key]:>12g}")

    if summary.gauges:
        lines.append("")
        lines.append("gauges (last value)")
        width = max(len(k) for k in summary.gauges)
        for key in sorted(summary.gauges):
            lines.append(f"  {key:<{width}} {summary.gauges[key]:>12g}")

    if summary.histograms:
        lines.append("")
        lines.append("histograms")
        lines.append(f"  {'metric':<40} {'count':>7} {'mean':>10} {'p50':>10} {'p90':>10} {'max':>10}")
        for key in sorted(summary.histograms):
            h = summary.histograms[key]
            lines.append(
                f"  {key:<40} {h.count:>7} {h.mean:>10.4f} "
                f"{h.quantile(0.5):>10.4f} {h.quantile(0.9):>10.4f} {h.max:>10.4f}"
            )

    return "\n".join(lines)
