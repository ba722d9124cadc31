"""Declarative alerting on top of the model-health event stream.

An :class:`AlertRule` states a condition over the per-window health
records :class:`~repro.obs.monitor.ModelHealthMonitor` produces —
"coverage@0.9 below 0.8 for 12 consecutive windows", "drift score above
λ", "QoS violation rate above x" — and the :class:`AlertEngine` tracks
consecutive breaches and fires structured ``alert`` events into the
telemetry stream when a rule's streak requirement is met.

Rules can be built programmatically or parsed from the compact spec
grammar the CLI exposes (``--alert``)::

    coverage@0.9 < 0.8 for 12
    drift_score > 25
    violation_rate > 0.1 for 3
    mape > 0.5

i.e. ``<metric>[@<level>] <op> <threshold> [for <N>]`` where ``metric``
is any numeric field of the window record (``coverage`` and ``wql``
take a quantile level), ``op`` is one of ``< <= > >=``, and ``N`` is
the number of *consecutive* breaching windows required (default 1).

A rule fires once per breach episode: after firing it re-arms only when
the condition recovers, so a long outage produces one alert, not one
per window.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .registry import get_registry

__all__ = [
    "Alert",
    "AlertRule",
    "AlertEngine",
    "parse_rule",
    "default_rules",
    "degradation_rules",
]

_OPS = {
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
}

_SPEC_RE = re.compile(
    r"""^\s*
    (?P<metric>[a-zA-Z_][a-zA-Z0-9_.]*)
    (?:@(?P<level>[0-9.]+))?
    \s*(?P<op><=|>=|<|>)\s*
    (?P<threshold>-?[0-9.eE+-]+)
    (?:\s+for\s+(?P<windows>\d+))?
    \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class AlertRule:
    """One declarative condition over window health records.

    Parameters
    ----------
    metric:
        Field of the window record to test.  ``coverage`` and ``wql``
        are per-level dicts and require ``level``; everything else
        (``calibration_error``, ``mean_wql``, ``mape``, ``drift_score``,
        ``drift_events``, ``violation_rate``, ``mean_residual``, ...)
        is read directly.
    op:
        Comparison: ``<``, ``<=``, ``>``, ``>=``.
    threshold:
        Right-hand side of the comparison.
    level:
        Quantile level for per-level metrics (e.g. 0.9).
    for_windows:
        Consecutive breaching windows required before firing.
    severity:
        Free-form label stamped onto fired alerts (``warning`` default).
    name:
        Display name; defaults to the spec-like form.
    """

    metric: str
    op: str
    threshold: float
    level: float | None = None
    for_windows: int = 1
    severity: str = "warning"
    name: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparator {self.op!r}")
        if self.for_windows < 1:
            raise ValueError("for_windows must be >= 1")
        if not self.name:
            object.__setattr__(self, "name", self.spec)

    @property
    def spec(self) -> str:
        """Canonical spec string (parseable by :func:`parse_rule`)."""
        metric = self.metric
        if self.level is not None:
            metric = f"{metric}@{self.level:g}"
        suffix = f" for {self.for_windows}" if self.for_windows > 1 else ""
        return f"{metric} {self.op} {self.threshold:g}{suffix}"

    def value_from(self, record: dict) -> float | None:
        """Extract this rule's metric from a window record (None if absent)."""
        value = record.get(self.metric)
        if isinstance(value, dict):
            if self.level is None:
                return None
            value = value.get(format(self.level, "g"))
        if value is None:
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            return None

    def breached(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


@dataclass(frozen=True)
class Alert:
    """One fired alert."""

    rule: AlertRule
    window: int
    end_index: int
    value: float

    @property
    def message(self) -> str:
        streak = (
            f" for {self.rule.for_windows} consecutive windows"
            if self.rule.for_windows > 1
            else ""
        )
        return (
            f"{self.rule.name}: value {self.value:g} "
            f"{self.rule.op} {self.rule.threshold:g}{streak} "
            f"(window {self.window}, t={self.end_index})"
        )

    def as_record(self) -> dict:
        return {
            "kind": "alert",
            "name": self.rule.name,
            "metric": self.rule.metric,
            "level": self.rule.level,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "for_windows": self.rule.for_windows,
            "severity": self.rule.severity,
            "window": self.window,
            "end_index": self.end_index,
            "value": self.value,
            "message": self.message,
        }


def parse_rule(spec: str, severity: str = "warning") -> AlertRule:
    """Parse ``"<metric>[@level] <op> <threshold> [for N]"`` into a rule."""
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ValueError(
            f"cannot parse alert rule {spec!r}; expected "
            f"'<metric>[@level] <op> <threshold> [for N]', "
            f"e.g. 'coverage@0.9 < 0.8 for 12'"
        )
    level = match.group("level")
    windows = match.group("windows")
    return AlertRule(
        metric=match.group("metric"),
        op=match.group("op"),
        threshold=float(match.group("threshold")),
        level=float(level) if level is not None else None,
        for_windows=int(windows) if windows is not None else 1,
        severity=severity,
    )


def default_rules(
    nominal_level: float = 0.9, coverage_slack: float = 0.15
) -> list[AlertRule]:
    """A sensible starter rule set for a closed-loop run.

    * coverage at the planning level sagging ``coverage_slack`` below
      nominal for 2 consecutive windows (miscalibration);
    * any window containing a drift firing (regime change);
    * QoS violation rate above 20% for 2 consecutive windows.
    """
    return [
        AlertRule(
            metric="coverage",
            level=nominal_level,
            op="<",
            threshold=max(nominal_level - coverage_slack, 0.0),
            for_windows=2,
            severity="warning",
        ),
        AlertRule(
            metric="drift_events",
            op=">",
            threshold=0.0,
            severity="critical",
        ),
        AlertRule(
            metric="violation_rate",
            op=">",
            threshold=0.2,
            for_windows=2,
            severity="critical",
        ),
    ]


def degradation_rules(max_degraded_rate: float = 0.5) -> list[AlertRule]:
    """Rules that surface graceful degradation in the runtime loop.

    Degraded intervals (planner failures served by the reactive
    fallback) reach the monitor's window records via
    :meth:`~repro.obs.monitor.ModelHealthMonitor.observe_degraded`:

    * any degraded interval in a window — the loop is running on its
      fallback (warning);
    * more than ``max_degraded_rate`` of a window degraded — the
      predictive planner is effectively down (critical).
    """
    if not 0.0 <= max_degraded_rate <= 1.0:
        raise ValueError("max_degraded_rate must be in [0, 1]")
    return [
        AlertRule(
            metric="degraded_intervals",
            op=">",
            threshold=0.0,
            severity="warning",
        ),
        AlertRule(
            metric="degraded_rate",
            op=">",
            threshold=max_degraded_rate,
            severity="critical",
        ),
    ]


class AlertEngine:
    """Evaluates rules against each window record; fires and logs alerts.

    Fired alerts are appended to :attr:`alerts`, published through the
    ambient registry as ``alert`` events (any attached sink receives
    them), and counted in the ``alerts.fired{rule=...}`` counter.
    """

    def __init__(self, rules: "list[AlertRule] | None" = None) -> None:
        self.rules: list[AlertRule] = list(rules) if rules is not None else []
        self.alerts: list[Alert] = []
        self._streaks: dict[str, int] = {}
        self._firing: dict[str, bool] = {}

    def add_rule(self, rule: AlertRule) -> None:
        self.rules.append(rule)

    def evaluate(self, record: dict) -> list[Alert]:
        """Test every rule against one window record; return new alerts."""
        fired: list[Alert] = []
        for rule in self.rules:
            value = rule.value_from(record)
            if value is None:
                continue
            if rule.breached(value):
                streak = self._streaks.get(rule.name, 0) + 1
                self._streaks[rule.name] = streak
                if streak >= rule.for_windows:
                    alert = self.fire(
                        rule,
                        window=int(record.get("window", -1)),
                        end_index=int(record.get("end_index", -1)),
                        value=value,
                    )
                    if alert is not None:
                        fired.append(alert)
            else:
                self._streaks[rule.name] = 0
                self.resolve(rule.name)
        return fired

    def fire(
        self, rule: AlertRule, window: int, end_index: int, value: float
    ) -> "Alert | None":
        """Fire ``rule`` directly, honouring once-per-episode re-arm.

        Used by evaluators that track their own breach condition (the
        SLO burn-rate tracker) but want alerts logged, emitted, and
        counted exactly like rule-engine firings.  Returns the new
        :class:`Alert`, or None when the rule is already firing.
        """
        if self._firing.get(rule.name):
            return None
        self._firing[rule.name] = True
        alert = Alert(
            rule=rule, window=window, end_index=end_index, value=value
        )
        self.alerts.append(alert)
        registry = get_registry()
        registry.emit_event(**alert.as_record())
        registry.counter("alerts.fired", rule=rule.name).inc()
        return alert

    def resolve(self, name: str) -> None:
        """Mark a rule's breach episode over, re-arming it."""
        self._firing[name] = False

    def is_firing(self, name: str) -> bool:
        """True while a rule is inside an unresolved breach episode."""
        return bool(self._firing.get(name))

    def alert_records(self) -> list[dict]:
        """All fired alerts as plain event records."""
        return [alert.as_record() for alert in self.alerts]

    # -- checkpoint/restore --------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe streak/firing state plus the fired-alert log.

        Rules themselves are configuration, not state — a restored
        engine keeps whatever rules it was constructed with; fired
        alerts carry their rule inline so the log survives even if the
        rule set changed between runs.
        """
        return {
            "streaks": dict(self._streaks),
            "firing": dict(self._firing),
            "alerts": [
                {
                    "rule": dict(vars(alert.rule)),
                    "window": alert.window,
                    "end_index": alert.end_index,
                    "value": alert.value,
                }
                for alert in self.alerts
            ],
        }

    def load_state_dict(self, state: dict) -> "AlertEngine":
        """Restore state captured by :meth:`state_dict` in place."""
        self._streaks = {k: int(v) for k, v in state["streaks"].items()}
        self._firing = {k: bool(v) for k, v in state["firing"].items()}
        self.alerts = [
            Alert(
                rule=AlertRule(**entry["rule"]),
                window=int(entry["window"]),
                end_index=int(entry["end_index"]),
                value=float(entry["value"]),
            )
            for entry in state["alerts"]
        ]
        return self
