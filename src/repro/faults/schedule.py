"""Seeded, schedule-driven fault injection.

The paper's offline evaluation only ever sees clean traces and
instantaneous, always-successful scaling.  Production autoscalers are
judged by what happens when those assumptions break: telemetry arrives
as NaN or not at all, provisioning requests fail, forecasters crash or
blow their deadline.  A :class:`FaultSchedule` is the single source of
truth for *when* and *what* goes wrong, so a chaos run is exactly
reproducible from ``(workload seed, fault seed)``.

Three injection layers share one schedule, split by fault kind:

* **telemetry** (``nan``, ``inf``, ``negative``, ``drop``,
  ``duplicate``, ``spike``) — corrupt the workload feed before the
  runtime observes it (:mod:`repro.faults.telemetry`);
* **planner** (``planner_error``, ``planner_timeout``) — make the
  planning step raise or overrun its deadline
  (:mod:`repro.faults.planner`);
* **cluster** (``node_crash``, ``provision_fail``, ``warmup_stall``,
  ``warmup_fail``) — actuation failures on the simulated cluster
  (:func:`repro.simulator.replay_plan`).

Schedules come from three constructors: an explicit event list, the
compact spec grammar the CLI exposes (:meth:`FaultSchedule.parse`), or
seeded Bernoulli sampling (:meth:`FaultSchedule.random`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "TELEMETRY_KINDS",
    "PLANNER_KINDS",
    "CLUSTER_KINDS",
    "ALL_KINDS",
]

#: Faults applied to the observation feed.
TELEMETRY_KINDS = frozenset(
    {"nan", "inf", "negative", "drop", "duplicate", "spike"}
)
#: Faults applied to the planning step.
PLANNER_KINDS = frozenset({"planner_error", "planner_timeout"})
#: Faults applied to the simulated cluster.
CLUSTER_KINDS = frozenset(
    {"node_crash", "provision_fail", "warmup_stall", "warmup_fail"}
)
ALL_KINDS = TELEMETRY_KINDS | PLANNER_KINDS | CLUSTER_KINDS

#: Default parameter per parameterised kind (spike multiplier,
#: warm-up stall multiplier); kinds absent here take no parameter.
_DEFAULT_PARAMS = {"spike": 10.0, "warmup_stall": 10.0}

# One spec clause: kind@START[..END[/STEP]][:PARAM]
_CLAUSE_RE = re.compile(
    r"""^\s*
    (?P<kind>[a-z_]+)
    @(?P<start>\d+)
    (?:\.\.(?P<end>\d+)(?:/(?P<step>\d+))?)?
    (?::(?P<param>[0-9.eE+-]+))?
    \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault: *what* goes wrong at *which* interval.

    ``time_index`` is interpreted by each injection layer in its own
    index space (the chaos harness and CLI use test-relative interval
    indices throughout).  ``param`` carries the kind's magnitude where
    one applies: the spike multiplier for ``spike``, the warm-up
    multiplier for ``warmup_stall``.
    """

    time_index: int
    kind: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(ALL_KINDS)}"
            )
        if self.time_index < 0:
            raise ValueError("time_index must be non-negative")

    @property
    def parameter(self) -> float:
        """The event's parameter, falling back to the kind's default."""
        if self.param is not None:
            return float(self.param)
        return _DEFAULT_PARAMS.get(self.kind, 1.0)

    @property
    def spec(self) -> str:
        """Canonical single-clause spec; ``parse`` reads it back exactly."""
        suffix = f":{float(self.param)!r}" if self.param is not None else ""
        return f"{self.kind}@{self.time_index}{suffix}"


class FaultSchedule:
    """An immutable, time-ordered collection of :class:`FaultEvent`.

    Lookup by interval is O(1) (:meth:`at`); the layer-specific views
    (:attr:`telemetry`, :attr:`planner`, :attr:`cluster`) are
    sub-schedules the injectors consume.
    """

    def __init__(self, events: "tuple[FaultEvent, ...] | list[FaultEvent]" = ()):
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time_index, e.kind))
        )
        self._by_index: dict[int, tuple[FaultEvent, ...]] = {}
        for event in self.events:
            self._by_index[event.time_index] = self._by_index.get(
                event.time_index, ()
            ) + (event,)

    # -- construction --------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse a comma-separated fault spec into a schedule.

        Each clause is ``kind@START[..END[/STEP]][:PARAM]``::

            nan@12                     # one NaN observation at t=12
            spike@30:8                 # workload x8 at t=30
            drop@40..60/5              # a dropped sample every 5th
                                       # interval in [40, 60]
            planner_error@24           # forecaster raises at t=24
            node_crash@18,provision_fail@20

        Times are interval indices in the consumer's frame (the CLI and
        chaos harness use test-relative indices).
        """
        events: list[FaultEvent] = []
        for clause in spec.split(","):
            if not clause.strip():
                continue
            match = _CLAUSE_RE.match(clause)
            if match is None:
                raise ValueError(
                    f"cannot parse fault clause {clause.strip()!r}; expected "
                    f"'kind@START[..END[/STEP]][:PARAM]', e.g. 'nan@12', "
                    f"'spike@30:8', 'drop@40..60/5'"
                )
            kind = match.group("kind")
            start = int(match.group("start"))
            end = int(match.group("end")) if match.group("end") else start
            step = int(match.group("step")) if match.group("step") else 1
            if step < 1:
                raise ValueError(f"step must be >= 1 in {clause.strip()!r}")
            if end < start:
                raise ValueError(f"END < START in {clause.strip()!r}")
            param = (
                float(match.group("param")) if match.group("param") else None
            )
            for t in range(start, end + 1, step):
                events.append(FaultEvent(time_index=t, kind=kind, param=param))
        return cls(events)

    @classmethod
    def random(
        cls,
        length: int,
        rates: dict[str, float],
        seed: int = 0,
        params: "dict[str, float] | None" = None,
    ) -> "FaultSchedule":
        """Sample a schedule: each kind fires i.i.d. Bernoulli per interval.

        Fully determined by ``(length, rates, seed, params)`` — kinds
        are drawn in sorted order from one ``default_rng(seed)`` stream,
        so the same inputs always produce the same schedule.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        rng = np.random.default_rng(seed)
        params = params or {}
        events: list[FaultEvent] = []
        for kind in sorted(rates):
            if kind not in ALL_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
            rate = float(rates[kind])
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} must be in [0, 1]")
            hits = np.flatnonzero(rng.random(length) < rate)
            for t in hits:
                events.append(
                    FaultEvent(
                        time_index=int(t), kind=kind, param=params.get(kind)
                    )
                )
        return cls(events)

    # -- queries -------------------------------------------------------
    def at(self, time_index: int) -> tuple[FaultEvent, ...]:
        """Every event scheduled for one interval (possibly empty)."""
        return self._by_index.get(time_index, ())

    def only(self, kinds: frozenset[str] | set[str]) -> "FaultSchedule":
        """Sub-schedule containing only the given kinds."""
        return FaultSchedule(
            tuple(e for e in self.events if e.kind in kinds)
        )

    @property
    def telemetry(self) -> "FaultSchedule":
        return self.only(TELEMETRY_KINDS)

    @property
    def planner(self) -> "FaultSchedule":
        return self.only(PLANNER_KINDS)

    @property
    def cluster(self) -> "FaultSchedule":
        return self.only(CLUSTER_KINDS)

    def counts(self) -> dict[str, int]:
        """Events per kind (for reports)."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    @property
    def spec(self) -> str:
        """Canonical comma-joined spec for the whole schedule."""
        return ",".join(e.spec for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.events == other.events

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self.events)} events: {self.counts()})"
