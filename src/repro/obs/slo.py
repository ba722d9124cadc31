"""Declarative SLOs with error budgets and multi-window burn-rate alerts.

The paper's claim — probabilistic planning cuts QoS violations at
modest cost — is a *service-level objective* claim, so the monitor
needs a first-class notion of one.  An SLO here is a compact spec
string compiled by :func:`parse_slo`::

    qos_violation_rate < 0.05 over 288     # rate objective
    coverage@0.9 >= 0.85 over 144          # good-rate objective
    plan_latency_p99 < 0.5s                # latency objective

i.e. ``<metric>[@level] <op> <value>[ms|s] [over <window ticks>]``.

Two kinds fall out of the grammar:

* **rate** objectives watch a fraction in the
  :class:`~repro.obs.monitor.ModelHealthMonitor` window records.  For
  ``<``/``<=`` the metric is a *bad* rate (violation rate) and the
  threshold is the error budget; for ``>``/``>=`` it is a *good* rate
  (coverage) and the budget is ``1 - threshold``.  The tracker keeps a
  rolling ledger of bad ticks over the SLO window and converts it to
  Google-SRE-style **burn rates**: ``burn = observed bad rate / budget
  rate``, evaluated over a long and a short sub-window so alerts need
  both a sustained and a *current* burn (fast detection without
  flapping on a single bad window).
* **latency** objectives watch a quantile of a span-duration histogram
  (``plan_latency_p99`` → p99 of ``runtime.step/plan``), checked at
  every window close against the threshold.

Alerts fire through the shared :class:`~repro.obs.alerts.AlertEngine`,
so they reach the telemetry stream, the ``alerts.fired`` counter, and
the service daemon's replan-on-alert hook exactly like any other rule —
and *resolve* when the burn drops, re-arming the episode.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from .alerts import _OPS, AlertEngine, AlertRule
from .registry import get_registry

__all__ = [
    "SLO",
    "BurnRateRule",
    "SLOTracker",
    "parse_slo",
    "default_burn_rates",
]

#: Monitor-record fields addressable from a spec, by friendly name.
_RATE_ALIASES = {
    "qos_violation_rate": "violation_rate",
}

#: Span paths addressable from a latency spec, by friendly name.
#: Unknown bases are taken as literal span paths.
_LATENCY_ALIASES = {
    "plan_latency": "runtime.step/plan",
    "actuate_latency": "runtime.step/actuate",
    "observe_latency": "runtime.step/observe",
    "step_latency": "runtime.step",
}

_QUANTILE_SUFFIXES = {"_p50": 0.5, "_p90": 0.9, "_p99": 0.99}

_SPEC_RE = re.compile(
    r"""^\s*
    (?P<metric>[a-zA-Z_][a-zA-Z0-9_./-]*?)
    (?:@(?P<level>[0-9.]+))?
    \s*(?P<op><=|>=|<|>)\s*
    (?P<value>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
    (?P<unit>ms|s)?
    (?:\s+over\s+(?P<window>\d+))?
    \s*$""",
    re.VERBOSE,
)

#: Default rolling window for rate objectives, in ticks (two days at
#: 10-minute intervals).
DEFAULT_WINDOW = 288


@dataclass(frozen=True)
class SLO:
    """One compiled service-level objective."""

    metric: str  # record field (rate) or span path (latency)
    op: str
    threshold: float  # rate in [0,1], or seconds for latency
    window: int  # rolling window in ticks (rate objectives)
    kind: str  # "rate" | "latency"
    level: float | None = None  # quantile level for per-level record fields
    quantile: float = 0.99  # histogram quantile for latency objectives
    spec: str = ""  # original spec string (display name)

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparator {self.op!r}")
        if self.kind not in ("rate", "latency"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.kind == "rate" and not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"rate objective threshold must be in [0, 1], "
                f"got {self.threshold:g}"
            )
        if not self.spec:
            object.__setattr__(self, "spec", self._default_spec())

    def _default_spec(self) -> str:
        metric = self.metric
        if self.level is not None:
            metric = f"{metric}@{self.level:g}"
        if self.kind == "latency":
            return f"{metric} {self.op} {self.threshold:g}s"
        return f"{metric} {self.op} {self.threshold:g} over {self.window}"

    @property
    def budget_rate(self) -> float:
        """Allowed bad-event rate (the error budget as a fraction).

        Meaningful for rate objectives only; a ``< 0.05`` bad-rate
        objective budgets 5% bad ticks, a ``>= 0.85`` good-rate
        objective budgets 15%.
        """
        if self.op in ("<", "<="):
            return self.threshold
        return 1.0 - self.threshold

    def bad_rate(self, value: float) -> float:
        """Convert an observed metric value into a bad-event rate."""
        if self.op in ("<", "<="):
            return float(value)
        return 1.0 - float(value)

    def value_from(self, record: dict) -> float | None:
        """Extract this objective's metric from a monitor window record."""
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


def parse_slo(spec: str) -> SLO:
    """Parse ``"<metric>[@level] <op> <value>[ms|s] [over N]"`` into an SLO."""
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ValueError(
            f"cannot parse SLO {spec!r}; expected "
            f"'<metric>[@level] <op> <value>[ms|s] [over N]', e.g. "
            f"'qos_violation_rate < 0.05 over 288' or "
            f"'plan_latency_p99 < 0.5s'"
        )
    metric = match.group("metric")
    value = float(match.group("value"))
    unit = match.group("unit")
    level = match.group("level")
    window = match.group("window")

    quantile = None
    for suffix, q in _QUANTILE_SUFFIXES.items():
        if metric.endswith(suffix):
            quantile = q
            metric = metric[: -len(suffix)]
            break
    if quantile is not None or unit is not None:
        path = _LATENCY_ALIASES.get(metric, metric)
        if unit == "ms":
            value /= 1000.0
        return SLO(
            metric=path,
            op=match.group("op"),
            threshold=value,
            window=int(window) if window else DEFAULT_WINDOW,
            kind="latency",
            quantile=quantile if quantile is not None else 0.99,
            spec=spec.strip(),
        )
    return SLO(
        metric=_RATE_ALIASES.get(metric, metric),
        op=match.group("op"),
        threshold=value,
        window=int(window) if window else DEFAULT_WINDOW,
        kind="rate",
        level=float(level) if level is not None else None,
        spec=spec.strip(),
    )


@dataclass(frozen=True)
class BurnRateRule:
    """One burn-rate alerting condition (long + short sub-window).

    ``factor`` is the multiple of the budget-sustainable rate: burning
    at 14.4x exhausts a 2-day budget in ~3.3 hours.  The alert requires
    *both* sub-windows above the factor — the long window proves the
    burn is sustained, the short window proves it is still happening.
    """

    severity: str
    factor: float
    long_ticks: int
    short_ticks: int

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if self.long_ticks < 1 or self.short_ticks < 1:
            raise ValueError("burn windows must be >= 1 tick")


def default_burn_rates(window: int) -> list[BurnRateRule]:
    """The classic SRE two-alert ladder, scaled to the SLO window.

    For the canonical 30-day/1-hour page this is 14.4x over window/720
    — here windows are ticks, so the ratios are kept: a fast critical
    burn over ~window/24 and a slow warning burn over ~window/6.
    """
    return [
        BurnRateRule(
            severity="critical",
            factor=14.4,
            long_ticks=max(window // 24, 1),
            short_ticks=max(window // 96, 1),
        ),
        BurnRateRule(
            severity="warning",
            factor=6.0,
            long_ticks=max(window // 6, 1),
            short_ticks=max(window // 24, 1),
        ),
    ]


class SLOTracker:
    """Rolling error-budget accounting and burn-rate alerting.

    Attach to a :class:`~repro.obs.monitor.ModelHealthMonitor` (the
    ``slos=`` parameter); every finalised window record feeds
    :meth:`observe_window`, which updates each rate objective's bad-tick
    ledger, evaluates each latency objective against its span
    histogram, emits one ``kind="slo"`` event per objective, and fires
    or resolves burn alerts through the shared engine.

    Parameters
    ----------
    slos:
        Objectives, as spec strings or :class:`SLO` instances.
    engine:
        The :class:`~repro.obs.alerts.AlertEngine` burn alerts fire
        through (a private one is created when omitted, so the tracker
        works standalone).
    burn_rates:
        Burn ladder shared by all rate objectives; defaults to
        :func:`default_burn_rates` of each objective's own window.
    """

    def __init__(
        self,
        slos,
        engine: "AlertEngine | None" = None,
        burn_rates: "list[BurnRateRule] | None" = None,
    ) -> None:
        self.slos: list[SLO] = [
            slo if isinstance(slo, SLO) else parse_slo(slo) for slo in slos
        ]
        self.engine = engine if engine is not None else AlertEngine()
        self._burn_rates = burn_rates
        # Per-rate-objective ledger of (end_tick, steps, bad_ticks).
        self._samples: dict[str, deque] = {
            slo.spec: deque() for slo in self.slos if slo.kind == "rate"
        }
        self.windows_observed = 0
        self._last_status: list[dict] = []

    def burn_rates_for(self, slo: SLO) -> list[BurnRateRule]:
        if self._burn_rates is not None:
            return self._burn_rates
        return default_burn_rates(slo.window)

    # -- feeding ---------------------------------------------------------
    def observe_window(self, record: dict) -> list[dict]:
        """Ingest one monitor window record; returns per-SLO status."""
        end_tick = int(record.get("end_index", -1))
        steps = int(record.get("steps", 0))
        registry = get_registry()
        status: list[dict] = []
        for slo in self.slos:
            if slo.kind == "rate":
                value = slo.value_from(record)
                if value is not None and steps > 0:
                    ledger = self._samples[slo.spec]
                    ledger.append(
                        (end_tick, steps, slo.bad_rate(value) * steps)
                    )
                    horizon = end_tick - slo.window
                    while ledger and ledger[0][0] <= horizon:
                        ledger.popleft()
                entry = self._rate_status(slo, end_tick, record)
            else:
                entry = self._latency_status(slo, record)
            status.append(entry)
            registry.emit_event(**{"kind": "slo", "name": slo.spec, **entry})
            registry.gauge("slo.budget_consumed", objective=slo.spec).set(
                entry.get("budget_consumed", 0.0) or 0.0
            )
        self.windows_observed += 1
        self._last_status = status
        return status

    # -- per-kind evaluation ---------------------------------------------
    def _windowed_bad_rate(self, slo: SLO, ticks: int, now: int) -> float | None:
        """Observed bad-tick rate over the trailing ``ticks``, or None."""
        horizon = now - ticks
        steps = bad = 0.0
        for end_tick, window_steps, bad_ticks in self._samples[slo.spec]:
            if end_tick > horizon:
                steps += window_steps
                bad += bad_ticks
        if steps <= 0:
            return None
        return bad / steps

    def _rate_status(self, slo: SLO, now: int, record: dict) -> dict:
        ledger = self._samples[slo.spec]
        observed = sum(s for _, s, _ in ledger)
        bad = sum(b for _, _, b in ledger)
        budget_rate = slo.budget_rate
        budget_ticks = budget_rate * slo.window
        consumed = bad / budget_ticks if budget_ticks > 0 else float(bad > 0)
        burns: dict[str, dict] = {}
        firing_any = False
        for rule in self.burn_rates_for(slo):
            long_rate = self._windowed_bad_rate(slo, rule.long_ticks, now)
            short_rate = self._windowed_bad_rate(slo, rule.short_ticks, now)
            if budget_rate > 0:
                long_burn = (long_rate or 0.0) / budget_rate
                short_burn = (short_rate or 0.0) / budget_rate
            else:
                # Zero budget: any bad tick is an infinite burn.
                long_burn = float("inf") if (long_rate or 0.0) > 0 else 0.0
                short_burn = float("inf") if (short_rate or 0.0) > 0 else 0.0
            breaching = (
                long_rate is not None
                and long_burn >= rule.factor
                and short_burn >= rule.factor
            )
            name = f"slo-burn:{slo.spec}:{rule.severity}"
            if breaching:
                firing_any = True
                alert_rule = AlertRule(
                    metric="slo_burn_rate",
                    op=">=",
                    threshold=rule.factor,
                    severity=rule.severity,
                    name=name,
                )
                self.engine.fire(
                    alert_rule,
                    window=int(record.get("window", -1)),
                    end_index=now,
                    value=long_burn,
                )
            else:
                self.engine.resolve(name)
            burns[rule.severity] = {
                "factor": rule.factor,
                "long_ticks": rule.long_ticks,
                "short_ticks": rule.short_ticks,
                "long_burn": long_burn,
                "short_burn": short_burn,
                "firing": self.engine.is_firing(name),
            }
        return {
            "objective": slo.spec,
            "slo_kind": "rate",
            "metric": slo.metric,
            "window": slo.window,
            "ticks_observed": observed,
            "bad_ticks": bad,
            "budget_ticks": budget_ticks,
            "budget_consumed": consumed,
            "budget_remaining": max(1.0 - consumed, 0.0),
            "burn": burns,
            "healthy": not firing_any,
        }

    def _latency_status(self, slo: SLO, record: dict) -> dict:
        registry = get_registry()
        metric = registry._metrics.get(("histogram", f"span/{slo.metric}", ()))
        value = None
        if metric is not None and metric.count:
            value = metric.quantile(slo.quantile)
        name = f"slo-latency:{slo.spec}"
        breaching = value is not None and not _OPS[slo.op](value, slo.threshold)
        # The objective states the *good* condition; breach = not met.
        if breaching:
            alert_rule = AlertRule(
                metric="slo_latency",
                op=slo.op,
                threshold=slo.threshold,
                severity="warning",
                name=name,
            )
            self.engine.fire(
                alert_rule,
                window=int(record.get("window", -1)),
                end_index=int(record.get("end_index", -1)),
                value=float(value),
            )
        else:
            self.engine.resolve(name)
        return {
            "objective": slo.spec,
            "slo_kind": "latency",
            "metric": slo.metric,
            "quantile": slo.quantile,
            "threshold_s": slo.threshold,
            "value_s": value,
            "healthy": not self.engine.is_firing(name),
        }

    # -- inspection ------------------------------------------------------
    def status(self) -> list[dict]:
        """Latest per-objective status (empty before the first window)."""
        return [dict(entry) for entry in self._last_status]

    # -- checkpoint/restore ----------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe ledger state; objectives themselves are config."""
        return {
            "windows_observed": self.windows_observed,
            "samples": {
                spec: [[int(e), int(s), float(b)] for e, s, b in ledger]
                for spec, ledger in self._samples.items()
            },
            "last_status": [dict(entry) for entry in self._last_status],
        }

    def load_state_dict(self, state: dict) -> "SLOTracker":
        saved = state["samples"]
        if set(saved) != set(self._samples):
            raise ValueError(
                f"checkpointed SLO ledgers {sorted(saved)} do not match "
                f"configured objectives {sorted(self._samples)}"
            )
        for spec, ledger in self._samples.items():
            ledger.clear()
            for end_tick, steps, bad in saved[spec]:
                ledger.append((int(end_tick), int(steps), float(bad)))
        self.windows_observed = int(state["windows_observed"])
        self._last_status = [dict(e) for e in state["last_status"]]
        return self
