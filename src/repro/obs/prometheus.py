"""Prometheus text exposition for registry snapshots.

:func:`render_prometheus` maps a
:meth:`~repro.obs.registry.MetricsRegistry.snapshot` onto the
Prometheus text format (version 0.0.4): counters become ``_total``
counters, gauges stay gauges, and histograms — whose reservoir gives
quantiles, not fixed buckets — are exposed as *summaries* with
``quantile`` labels plus ``_sum``/``_count``.  Span histograms all fold
into one ``<prefix>_span_duration_seconds`` family labelled by their
slash path, so dashboards can select phases without per-path metric
names.

The service control plane serves this at
``GET /metrics?format=prometheus``; everything is stdlib string
building, no client library involved.
"""

from __future__ import annotations

import math
import re

from .report import _parse_metric_key

__all__ = ["render_prometheus", "parse_exposition", "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, prefix: str) -> str:
    name = _NAME_OK.sub("_", name)
    if prefix:
        name = f"{prefix}_{name}"
    if name and name[0].isdigit():
        name = f"_{name}"
    return name


def _label_pairs(labels: dict) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        label = _LABEL_OK.sub("_", str(key))
        value = (
            str(labels[key])
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )
        parts.append(f'{label}="{value}"')
    return "{" + ",".join(parts) + "}"


def _number(value) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _summary_lines(
    name: str, labels: dict, summary: dict, lines: list[str]
) -> None:
    quantiles = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))
    for q, key in quantiles:
        value = summary.get(key)
        if value is None:
            # A summary without quantiles (an empty histogram's): sum
            # and count below still hold.
            continue
        lines.append(
            f"{name}{_label_pairs({**labels, 'quantile': q})} {_number(value)}"
        )
    lines.append(f"{name}_sum{_label_pairs(labels)} {_number(summary.get('sum', 0.0))}")
    lines.append(f"{name}_count{_label_pairs(labels)} {int(summary.get('count', 0))}")


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a registry snapshot as Prometheus exposition text."""
    lines: list[str] = []

    families: dict[str, list[tuple[dict, float]]] = {}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = _parse_metric_key(key)
        families.setdefault(name, []).append((labels, value))
    for name in sorted(families):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        for labels, value in families[name]:
            lines.append(f"{metric}{_label_pairs(labels)} {_number(value)}")

    families = {}
    for key, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue
        name, labels = _parse_metric_key(key)
        families.setdefault(name, []).append((labels, value))
    for name in sorted(families):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        for labels, value in families[name]:
            lines.append(f"{metric}{_label_pairs(labels)} {_number(value)}")

    summaries: dict[str, list[tuple[dict, dict]]] = {}
    for key, summary in snapshot.get("histograms", {}).items():
        name, labels = _parse_metric_key(key)
        summaries.setdefault(name, []).append((labels, summary))
    for name in sorted(summaries):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        for labels, summary in summaries[name]:
            _summary_lines(metric, labels, summary, lines)

    spans = snapshot.get("spans", {})
    if spans:
        metric = _metric_name("span_duration_seconds", prefix)
        lines.append(f"# TYPE {metric} summary")
        for key in sorted(spans):
            path, labels = _parse_metric_key(key)
            _summary_lines(metric, {"path": path, **labels}, spans[key], lines)

    return "\n".join(lines) + "\n" if lines else ""


def parse_exposition(text: str) -> dict[str, dict[str, float]]:
    """Parse exposition text back into ``{metric: {labelset: value}}``.

    A deliberately small validator — used by tests and the CI smoke
    script to prove the rendered output is well-formed, not a full
    client.  Raises ``ValueError`` on any malformed line.
    """
    sample_re = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?P<labels>\{[^}]*\})?"
        r" (?P<value>[^ ]+)$"
    )
    out: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            if line.startswith("#") and not line.startswith(("# TYPE ", "# HELP ")):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            continue
        match = sample_re.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        raw = match.group("value")
        if raw in ("+Inf", "-Inf", "NaN"):
            value = float(raw.replace("Inf", "inf").replace("NaN", "nan"))
        else:
            value = float(raw)  # raises ValueError on garbage
        out.setdefault(match.group("name"), {})[
            match.group("labels") or ""
        ] = value
    return out
