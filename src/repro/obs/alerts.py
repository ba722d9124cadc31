"""Declarative alert rules and SLOs over the model-health event stream.

One grammar states both.  An :class:`AlertRule` is a condition over the
per-window health records :class:`~repro.obs.monitor.ModelHealthMonitor`
produces; the :class:`AlertEngine` tests every rule on every record and
fires structured ``alert`` events into the telemetry stream.  A
service-level objective is a spec in the same grammar that
:func:`parse_slo` compiles into named rules for the same engine
(:class:`SLOTracker` attaches them and reports the error budget)::

    coverage@0.9 < 0.8 for 12            # rule: 12 consecutive windows
    drift_score > 6                      # rule: this window
    violation_rate > 0.1 over 48         # rule: mean over 48 ticks
    qos_violation_rate < 0.05 over 288   # objective: bad rate
    coverage@0.9 >= 0.85 over 144        # objective: good rate
    plan_latency_p99 < 0.5s              # objective: span latency

i.e. ``<metric>[@level] <op> <number>[ms|s] [for N] [over T]``:

* ``metric`` is a numeric field of the window record (``coverage`` and
  ``wql`` take a quantile level; ``qos_violation_rate`` names
  ``violation_rate``; ``drift_score`` is the monitor's CUSUM statistic
  at the window's close, which fires and restarts from zero above 8),
  or a span latency in seconds: a ``_p50`` /
  ``_p90`` / ``_p99`` suffix or a unit makes it that quantile (default
  p99) of the ``span/<path>`` duration histogram, ``plan_latency``
  naming the ``runtime.step/plan`` span (one per committed plan),
  ``step_latency`` the ``runtime.step`` span, any other ``*_latency``
  base an error and any other base a literal span path;
* ``op`` is one of ``< <= > >=``; ``for N`` asks for ``N`` consecutive
  breaching windows (default 1);
* ``over T`` tests the step-weighted mean of the metric over the
  trailing ``T`` ticks instead of this window's value, and breaches only
  when the mean over the trailing ``max(T // 4, 1)`` ticks breaches too
  (the SRE multi-window confirmation).

A rule fires once per breach episode: after firing it re-arms only when
the condition recovers, so a long outage produces one alert, not one per
window.  A record that lacks a rule's metric skips the rule: its streak
and episode stay as they were.
"""

from __future__ import annotations

import operator
import re
from collections import deque
from dataclasses import dataclass, replace

from .registry import get_registry

__all__ = [
    "Alert", "AlertRule", "AlertEngine", "SLOTracker",
    "parse_rule", "parse_slo", "default_rules",
]

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}

#: Record fields addressable by a friendlier name.
_RATE_ALIASES = {"qos_violation_rate": "violation_rate"}
#: Span paths addressable from a latency spec, by friendly name.
_LATENCY_ALIASES = {
    "plan_latency": "runtime.step/plan",
    "step_latency": "runtime.step",
}
_QUANTILE_SUFFIXES = {"_p50": 0.5, "_p90": 0.9, "_p99": 0.99}

_GRAMMAR = "<metric>[@level] <op> <number>[ms|s] [for N] [over T]"
_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_SPEC_RE = re.compile(
    rf"""^\s*
    (?P<metric>[a-zA-Z_][a-zA-Z0-9_./-]*)
    (?:@(?P<level>{_NUMBER}))?
    \s*(?P<op><=|>=|<|>)\s*
    (?P<threshold>{_NUMBER})(?P<unit>ms|s)?
    (?:\s+for\s+(?P<windows>[0-9]+))?
    (?:\s+over\s+(?P<over>[1-9][0-9]*))?
    \s*$""",
    re.VERBOSE,
)

#: Trailing ticks an objective's budget covers when its spec names none
#: (two days at 10-minute intervals).
DEFAULT_WINDOW = 288
#: The SRE burn-rate ladder, ``(severity, budget multiple, divisor)``: a
#: rung breaches at that multiple of the budget rate over the trailing
#: ``window // divisor`` ticks.  Its ``over`` rule confirms over a quarter
#: of that, which is the classic short window of both rungs exactly:
#: ``W//96 == (W//24)//4`` and ``W//24 == (W//6)//4``, clamping included.
_LADDER = (("critical", 14.4, 24), ("warning", 6.0, 6))


def _exact(number: float) -> str:
    """Shortest text of ``number`` that parses back to it exactly."""
    short = f"{number:g}"
    return short if float(short) == number else repr(float(number))


def _read(record: dict, metric: str, level: "float | None") -> "float | None":
    """``metric`` (at ``level``) from a window record, or None if absent.

    A ``span/<path>`` metric is the ``level`` quantile of that path's
    duration histogram; with several label sets (``forecast/fit`` per
    model and mode) the largest of their quantiles, the conservative
    reading for a latency objective.
    """
    if metric.startswith("span/"):
        histograms = get_registry().histograms(metric) if level is not None else []
        return max((h.quantile(level) for h in histograms if h.count), default=None)
    value = record.get(metric)
    if isinstance(value, dict):
        if level is None:
            return None
        value = value.get(format(level, "g"))
    try:
        return None if value is None else float(value)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class AlertRule:
    """One declarative condition over window health records.

    ``metric`` is a field of the window record (``coverage`` and ``wql``
    are per-level dicts and need ``level``) or ``span/<path>``, the
    ``level`` quantile of a span-duration histogram in seconds; ``op``
    compares it with ``threshold``.  ``for_windows`` consecutive breaching
    windows fire the rule; ``severity`` labels its alerts and ``name``
    (default: the spec with 6 significant digits) names them.  ``over``
    is 0 to test this window's value, or ``T`` to test the step-weighted
    mean over the trailing ``T`` ticks, confirmed over ``max(T // 4, 1)``.
    """

    metric: str
    op: str
    threshold: float
    level: float | None = None
    for_windows: int = 1
    severity: str = "warning"
    name: str = ""
    over: int = 0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparator {self.op!r}")
        if self.for_windows < 1 or self.over < 0:
            raise ValueError("for_windows must be >= 1 and over >= 0")
        if not self.name:
            object.__setattr__(self, "name", self._text("{:g}".format))

    def _text(self, number) -> str:
        metric = self.metric
        if self.level is not None:
            metric = f"{metric}@{number(self.level)}"
        suffix = f" for {self.for_windows}" if self.for_windows > 1 else ""
        if self.over:
            suffix += f" over {self.over}"
        return f"{metric} {self.op} {number(self.threshold)}{suffix}"

    @property
    def spec(self) -> str:
        """Canonical spec string: :func:`parse_rule` reads it back equal."""
        return self._text(_exact)

    def value_from(self, record: dict) -> float | None:
        """This rule's metric in a window record (None if absent)."""
        return _read(record, self.metric, self.level)

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
        rule = self.rule
        streak = f" for {rule.for_windows} consecutive windows" if rule.for_windows > 1 else ""
        streak += f" over {rule.over} ticks" if rule.over else ""
        return (f"{rule.name}: value {self.value:g} {rule.op} {rule.threshold:g}{streak} "
                f"(window {self.window}, t={self.end_index})")

    def as_record(self) -> dict:
        rule = self.rule
        return {
            "kind": "alert", "name": rule.name, "metric": rule.metric, "level": rule.level,
            "op": rule.op, "threshold": rule.threshold, "for_windows": rule.for_windows,
            "severity": rule.severity, "window": self.window, "end_index": self.end_index,
            "value": self.value, "message": self.message,
        }


def parse_rule(spec: str, severity: str = "warning") -> AlertRule:
    """Parse ``"<metric>[@level] <op> <number>[ms|s] [for N] [over T]"``."""
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ValueError(
            f"cannot parse alert rule {spec!r}; expected '{_GRAMMAR}', e.g. "
            f"'coverage@0.9 < 0.8 for 12' or 'qos_violation_rate < 0.05 over 288'"
        )
    metric, level, unit = match["metric"], match["level"], match["unit"]
    level = float(level) if level is not None else None
    threshold = float(match["threshold"])
    quantile = _QUANTILE_SUFFIXES.get(metric[-4:])
    if quantile is not None or unit is not None:
        if quantile is not None:
            metric = metric[:-4]
        if metric.endswith("_latency") and metric not in _LATENCY_ALIASES:
            raise ValueError(
                f"unknown latency alias {metric!r} in {spec!r}; the aliases are "
                f"{', '.join(sorted(_LATENCY_ALIASES))}, any other base a span path"
            )
        path = _LATENCY_ALIASES.get(metric, metric).removeprefix("span/")
        metric, level = f"span/{path}", quantile or level or 0.99
        threshold = threshold / 1000.0 if unit == "ms" else threshold
    return AlertRule(
        _RATE_ALIASES.get(metric, metric), match["op"], threshold, level,
        int(match["windows"] or 1), severity, over=int(match["over"] or 0),
    )


def _objective(spec: str) -> AlertRule:
    """An SLO spec as its rule: named by the spec, ``over`` its window."""
    rule = replace(parse_rule(spec), name=spec.strip())
    if rule.metric.startswith("span/"):
        return replace(rule, over=0)  # a latency objective reads the histogram
    if not 0.0 <= rule.threshold <= 1.0:
        raise ValueError(f"rate objective threshold must be in [0, 1], got {rule.threshold:g}")
    return rule if rule.over else replace(rule, over=DEFAULT_WINDOW)


def _budget(objective: AlertRule) -> "tuple[bool, float]":
    """``(good-rate?, budget rate)``: ``< 0.05`` budgets 5 % bad ticks,
    ``>= 0.85`` a good rate whose bad rate ``1 - value`` budgets 15 %."""
    good = objective.op in (">", ">=")
    return good, (1.0 - objective.threshold if good else objective.threshold)


def _compile(objective: AlertRule) -> list[AlertRule]:
    """The named rules that alert on ``objective`` (see :func:`parse_slo`)."""
    spec = objective.name
    if objective.metric.startswith("span/"):
        return [replace(objective, op=_NEGATED[objective.op], name=f"slo-latency:{spec}")]
    good, budget = _budget(objective)
    rules = []
    for severity, factor, divisor in _LADDER:
        limit = factor * budget
        if good:
            op, threshold = ("<" if budget == 0 else "<="), 1.0 - limit
        else:
            op, threshold = (">" if budget == 0 else ">="), limit
        rules.append(replace(
            objective, op=op, threshold=threshold, severity=severity,
            name=f"slo-burn:{spec}:{severity}", over=max(objective.over // divisor, 1),
        ))
    return rules


def parse_slo(spec: str) -> list[AlertRule]:
    """Parse an objective and compile it into its alert rules.

    A rate objective is one rule per :data:`_LADDER` rung:
    ``qos_violation_rate < 0.05 over 288`` becomes
    ``slo-burn:<spec>:critical`` (bad rate >= 14.4 x 0.05 over 12 ticks)
    and ``slo-burn:<spec>:warning`` (>= 6 x 0.05 over 48).  A good-rate
    objective tests ``1 - value``, a zero budget any bad tick (``> 0``).
    A latency objective states the good condition, so
    ``plan_latency_p99 < 0.5s`` becomes the one ``slo-latency:<spec>``
    rule ``p99 >= 0.5``.  ``over`` defaults to :data:`DEFAULT_WINDOW`; a
    rate threshold must be in [0, 1].
    """
    return _compile(_objective(spec))


def default_rules(
    nominal_level: float = 0.9, coverage_slack: float = 0.15
) -> list[AlertRule]:
    """A sensible starter rule set for a closed-loop run.

    * coverage at the planning level sagging ``coverage_slack`` below
      nominal for 2 consecutive windows (miscalibration);
    * any window containing a drift firing (regime change);
    * QoS violation rate above 20% for 2 consecutive windows.
    """
    coverage = max(nominal_level - coverage_slack, 0.0)
    return [
        AlertRule("coverage", "<", coverage, level=nominal_level, for_windows=2),
        AlertRule("drift_events", ">", 0.0, severity="critical"),
        AlertRule("violation_rate", ">", 0.2, for_windows=2, severity="critical"),
    ]


class _Ledger:
    """``(end_index, steps, value * steps)`` of one metric per window,
    kept over the longest trailing window that reads it."""

    __slots__ = ("span", "entries")

    def __init__(self) -> None:
        self.span = 0
        self.entries: deque = deque()

    def append(self, end_index: int, steps: int, value: float) -> None:
        self.entries.append((end_index, steps, value * steps))
        horizon = end_index - self.span
        while self.entries[0][0] <= horizon:
            self.entries.popleft()

    def sums(self, ticks: int, now: int) -> "tuple[float, float]":
        """``(steps, sum of value * steps)`` over the trailing ``ticks``."""
        horizon = now - ticks
        steps = weighted = 0.0
        for end_index, window_steps, window_weighted in self.entries:
            if end_index > horizon:
                steps += window_steps
                weighted += window_weighted
        return steps, weighted

    def mean(self, ticks: int, now: int) -> "float | None":
        steps, weighted = self.sums(ticks, now)
        return weighted / steps if steps else None


def _ledger_key(metric: str, level: "float | None") -> str:
    return metric if level is None else f"{metric}@{_exact(level)}"


class AlertEngine:
    """Evaluates rules against each window record; fires and logs alerts.

    Fired alerts are appended to :attr:`alerts`, emitted as ``alert``
    events through the ambient registry, and counted in the
    ``alerts.fired{rule=...}`` counter.  One step-weighted ledger per
    ``(metric, level)`` serves every windowed rule and objective on it.
    """

    def __init__(self, rules: "list[AlertRule] | None" = None) -> None:
        self.rules: list[AlertRule] = []
        self.alerts: list[Alert] = []
        self._streaks: dict[str, int] = {}
        self._firing: dict[str, bool] = {}
        self._ledgers: dict[tuple, _Ledger] = {}
        self._end_index = -1  # of the last record evaluated
        for rule in rules or ():
            self.add_rule(rule)

    def add_rule(self, rule: AlertRule) -> None:
        self.rules.append(rule)
        if rule.over:
            self._watch(rule)

    def _watch(self, rule: AlertRule) -> None:
        """Keep ``rule``'s metric in a ledger over at least ``rule.over``."""
        ledger = self._ledgers.setdefault((rule.metric, rule.level), _Ledger())
        ledger.span = max(ledger.span, rule.over)

    def evaluate(self, record: dict) -> list[Alert]:
        """Test every rule against one window record; return new alerts."""
        now = self._end_index = int(record.get("end_index", -1))
        steps = int(record.get("steps", 0))
        if steps > 0:
            for (metric, level), ledger in self._ledgers.items():
                value = _read(record, metric, level)
                if value is not None:
                    ledger.append(now, steps, value)
        fired: list[Alert] = []
        for rule in self.rules:
            value = rule.value_from(record)
            if value is None:
                continue
            if rule.over:
                ledger = self._ledgers[(rule.metric, rule.level)]
                value = ledger.mean(rule.over, now)
                confirm = ledger.mean(max(rule.over // 4, 1), now)
                breached = (
                    value is not None and confirm is not None
                    and rule.breached(value) and rule.breached(confirm)
                )
            else:
                breached = rule.breached(value)
            if not breached:
                self._streaks[rule.name] = 0
                self._firing[rule.name] = False  # re-armed
                continue
            streak = self._streaks[rule.name] = self._streaks.get(rule.name, 0) + 1
            if streak >= rule.for_windows and not self._firing.get(rule.name):
                fired.append(self._fire(rule, record, value))
        return fired

    def _fire(self, rule: AlertRule, record: dict, value: float) -> Alert:
        self._firing[rule.name] = True
        alert = Alert(rule, int(record.get("window", -1)), int(record.get("end_index", -1)), value)
        self.alerts.append(alert)
        registry = get_registry()
        registry.emit_event(**alert.as_record())
        registry.counter("alerts.fired", rule=rule.name).inc()
        return alert

    def alert_records(self) -> list[dict]:
        """All fired alerts as plain event records."""
        return [alert.as_record() for alert in self.alerts]

    # -- checkpoint/restore --------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe streaks, firing flags, ledgers and fired-alert log.

        Rules are configuration, not state; fired alerts carry their rule
        inline so the log survives a change of rule set between runs.
        """
        return {
            "streaks": dict(self._streaks),
            "firing": dict(self._firing),
            "end_index": self._end_index,
            "ledgers": {
                _ledger_key(*key): {"span": ledger.span, "entries": [list(e) for e in ledger.entries]}
                for key, ledger in self._ledgers.items()
            },
            "alerts": [
                {"rule": dict(vars(a.rule)), "window": a.window, "end_index": a.end_index,
                 "value": a.value}
                for a in self.alerts
            ],
        }

    def load_state_dict(self, state: dict) -> "AlertEngine":
        """Restore :meth:`state_dict` in place; its ledgers must be the
        ones this engine's windowed rules and objectives keep."""
        saved = {key: entry["span"] for key, entry in state["ledgers"].items()}
        ledgers = {_ledger_key(*key): ledger for key, ledger in self._ledgers.items()}
        configured = {key: ledger.span for key, ledger in ledgers.items()}
        if saved != configured:
            raise ValueError(
                f"checkpointed ledgers {saved} do not match the windowed rules "
                f"and objectives configured {configured}"
            )
        for key, ledger in ledgers.items():
            ledger.entries = deque(
                (int(e), int(s), float(w)) for e, s, w in state["ledgers"][key]["entries"]
            )
        self._streaks = {k: int(v) for k, v in state["streaks"].items()}
        self._firing = {k: bool(v) for k, v in state["firing"].items()}
        self._end_index = int(state["end_index"])
        self.alerts = [
            Alert(AlertRule(**e["rule"]), int(e["window"]), int(e["end_index"]), float(e["value"]))
            for e in state["alerts"]
        ]
        return self


class SLOTracker:
    """Service-level objectives as rules of one engine, plus their budgets.

    Construction adds each objective's rules (:func:`parse_slo`) to
    ``engine`` after the rules it holds, so burn and latency alerts fire
    like any rule, the daemon's replan-on-alert included.  The tracker
    holds no state: the status it reports — from the monitor
    (``slos=``, beside ``alerts=engine``) at every window close — is
    computed from the engine's ledgers and firing flags.
    """

    def __init__(self, slos, engine: AlertEngine) -> None:
        self.engine = engine
        self.objectives = [_objective(spec) for spec in slos]
        for objective in self.objectives:
            if objective.over:  # the budget reads the whole window
                engine._watch(objective)
            for rule in _compile(objective):
                engine.add_rule(rule)

    def observe_window(self, record: dict) -> list[dict]:
        """Publish one ``slo`` record and ``slo.budget_consumed`` gauge per
        objective for the window record the engine has just evaluated."""
        registry = get_registry()
        status = self.status()
        for entry in status:
            registry.emit_event(kind="slo", name=entry["objective"], **entry)
            registry.gauge("slo.budget_consumed", objective=entry["objective"]).set(
                entry.get("budget_consumed", 0.0)
            )
        return status

    def status(self) -> list[dict]:
        """Per-objective status at the engine's last evaluated window."""
        return [
            self._latency_status(objective)
            if objective.metric.startswith("span/")
            else self._rate_status(objective)
            for objective in self.objectives
        ]

    def _firing(self, name: str) -> bool:
        return bool(self.engine._firing.get(name))

    def _rate_status(self, objective: AlertRule) -> dict:
        engine, now = self.engine, self.engine._end_index
        ledger = engine._ledgers[(objective.metric, objective.level)]
        good, budget = _budget(objective)

        def bad(ticks: int) -> "tuple[float, float]":
            steps, weighted = ledger.sums(ticks, now)
            return steps, (steps - weighted if good else weighted)

        def burn(ticks: int) -> float:
            steps, bad_ticks = bad(ticks)
            rate = bad_ticks / steps if steps > 0 else 0.0
            if budget > 0:
                return rate / budget
            return float("inf") if rate > 0 else 0.0  # zero budget

        observed, bad_ticks = bad(objective.over)
        budget_ticks = budget * objective.over
        consumed = bad_ticks / budget_ticks if budget_ticks > 0 else float(bad_ticks > 0)
        burns = {}
        for severity, factor, divisor in _LADDER:
            long_ticks = max(objective.over // divisor, 1)
            short_ticks = max(long_ticks // 4, 1)
            burns[severity] = {
                "factor": factor, "long_ticks": long_ticks, "short_ticks": short_ticks,
                "long_burn": burn(long_ticks), "short_burn": burn(short_ticks),
                "firing": self._firing(f"slo-burn:{objective.name}:{severity}"),
            }
        return {
            "objective": objective.name, "slo_kind": "rate", "metric": objective.metric,
            "window": objective.over, "ticks_observed": int(observed), "bad_ticks": bad_ticks,
            "budget_ticks": budget_ticks, "budget_consumed": consumed,
            "budget_remaining": max(1.0 - consumed, 0.0), "burn": burns,
            "healthy": not any(rung["firing"] for rung in burns.values()),
        }

    def _latency_status(self, objective: AlertRule) -> dict:
        return {
            "objective": objective.name, "slo_kind": "latency",
            "metric": objective.metric.removeprefix("span/"), "quantile": objective.level,
            "threshold_s": objective.threshold,
            "value_s": _read({}, objective.metric, objective.level),
            "healthy": not self._firing(f"slo-latency:{objective.name}"),
        }
