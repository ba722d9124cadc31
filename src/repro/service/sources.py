"""Telemetry tick sources for the service runtime.

A *source* is an async iterable of workload observations — one float
per interval.  Two implementations cover the deployment shapes the
daemon needs:

* :class:`GeneratorSource` — an in-memory series (synthetic traces,
  tests, replays);
* :class:`FileTailSource` — read a file of ticks, optionally following
  it as a producer appends (the classic ``tail -f`` integration).

Every source counts the ticks it has emitted (:attr:`position`) and
supports :meth:`seek` to skip ticks already processed before a restore.

Tick lines are either a bare number (``123.4``) or a JSON object with a
``value`` field (``{"value": 123.4}``); blank lines and ``#`` comments
are ignored.  :func:`parse_tick_line` implements the format.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import AsyncIterator, Iterable, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "TelemetrySource",
    "GeneratorSource",
    "FileTailSource",
    "parse_tick_line",
]


def parse_tick_line(line: str) -> float | None:
    """One tick from one line; None for blanks and comments.

    Accepts a bare number or a JSON object whose ``value`` is a JSON
    number.  Raises :class:`ValueError` for anything else — a malformed
    telemetry line is an upstream bug, not something to silently drop
    (the runtime's ``invalid_policy`` governs *semantically* bad values
    such as NaN; this guards the wire format).
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    number = text
    if text.startswith("{"):
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"malformed telemetry line: {text!r}") from error
        if "value" not in record:
            raise ValueError(f"telemetry record missing 'value': {text!r}")
        number = record["value"]
        # a JSON boolean is an int to Python; null, strings and lists are no number
        if isinstance(number, bool) or not isinstance(number, (int, float)):
            raise ValueError(f"malformed telemetry line: {text!r}")
    try:
        return float(number)
    except (ValueError, OverflowError) as error:
        raise ValueError(f"malformed telemetry line: {text!r}") from error


@runtime_checkable
class TelemetrySource(Protocol):
    """Structural contract every tick source satisfies."""

    @property
    def position(self) -> int:
        """Ticks emitted so far (monotone; checkpoints record this)."""
        ...

    def seek(self, position: int) -> None:
        """Skip ahead so the next tick emitted is number ``position``."""
        ...

    def ticks(self) -> AsyncIterator[float]:
        """The tick stream itself."""
        ...


class GeneratorSource:
    """Serve ticks from an in-memory sequence, as fast as they are asked
    for (the daemon's ``tick_interval`` paces a replay like a live feed).

    Parameters
    ----------
    values:
        The workload series (any iterable of floats; materialised).
    """

    def __init__(self, values: Iterable[float]) -> None:
        self.values = np.asarray(list(values), dtype=np.float64)
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def __len__(self) -> int:
        return len(self.values)

    def seek(self, position: int) -> None:
        if not 0 <= position <= len(self.values):
            raise ValueError(
                f"seek position {position} outside [0, {len(self.values)}]"
            )
        self._position = int(position)

    async def ticks(self) -> AsyncIterator[float]:
        while self._position < len(self.values):
            value = float(self.values[self._position])
            self._position += 1
            yield value


class FileTailSource:
    """Read ticks from a file, optionally following appended lines.

    Parameters
    ----------
    path:
        Tick file (bare numbers or ``{"value": ...}`` JSONL).
    follow:
        When True, keep polling for new lines after EOF instead of
        stopping — the daemon stays up as long as the producer keeps
        writing.  When False (default) the stream ends at EOF.
    poll_interval:
        Seconds between EOF polls in follow mode.
    """

    def __init__(
        self,
        path: str | Path,
        follow: bool = False,
        poll_interval: float = 0.2,
    ) -> None:
        self.path = Path(path)
        self.follow = follow
        self.poll_interval = float(poll_interval)
        self._position = 0
        self._skip = 0

    @property
    def position(self) -> int:
        return self._position

    def seek(self, position: int) -> None:
        if position < 0:
            raise ValueError("seek position must be >= 0")
        self._skip = int(position)
        self._position = int(position)

    async def ticks(self) -> AsyncIterator[float]:
        skipped = 0
        with self.path.open("r", encoding="utf-8") as handle:
            while True:
                line = handle.readline()
                if not line:
                    if not self.follow:
                        return
                    await asyncio.sleep(self.poll_interval)
                    continue
                value = parse_tick_line(line)
                if value is None:
                    continue
                if skipped < self._skip:
                    skipped += 1
                    continue
                self._position += 1
                yield value
