"""Telemetry sinks: where the registry's records go.

A sink receives every record a
:class:`~repro.obs.registry.MetricsRegistry` writes as a plain dict:
``histogram`` observations, ``span`` records of spans outside any trace,
``trace`` records (which carry the spans closed inside them, and for a
daemon tick that tick's counters and gauges), free-form events, and
one ``metrics`` record per plain
:meth:`~repro.obs.registry.MetricsRegistry.flush` holding the counters
and gauges that changed since the previous one.  Counter and gauge
updates are not records of their own: call ``registry.flush()`` (or
``remove_sink``) before closing a sink, or it never sees their values.
Two implementations:

* :class:`InMemorySink` — buffers records for programmatic inspection
  (tests, notebooks);
* :class:`JsonlSink` — appends one JSON object per line to a file, the
  interchange format ``repro-autoscale report`` consumes and summarises.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Protocol, runtime_checkable

__all__ = ["Sink", "InMemorySink", "JsonlSink"]


@runtime_checkable
class Sink(Protocol):
    """Structural contract for telemetry consumers."""

    def emit(self, record: dict) -> None: ...

    def close(self) -> None: ...


class InMemorySink:
    """Keep every record in a list."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        # Copy: the registry reuses label dicts across events.
        self.records.append(dict(record))

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.records)


class JsonlSink:
    """Write one JSON object per line; also usable as a context manager.

    Crash safety: every record is flushed to the OS as soon as it is
    written, so a run killed mid-stream still leaves a readable (at
    worst truncated-last-line) telemetry file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: IO[str] | None = self.path.open("w", encoding="utf-8")
        self.records_written = 0

    def emit(self, record: dict) -> None:
        if self._file is None:
            raise ValueError(f"JsonlSink({self.path}) already closed")
        try:
            line = _ENCODER.encode(record)
        except ValueError:
            # Non-finite floats (empty-histogram min/max, inf burn
            # rates) would serialize as bare NaN/Infinity tokens no
            # strict JSON parser accepts; null them instead.  The
            # round-trip normalises numpy scalars first so _sanitize
            # only ever sees plain floats.
            normalized = json.loads(json.dumps(record, default=_jsonable))
            line = json.dumps(_sanitize(normalized), allow_nan=False)
        self._file.write(line + "\n")
        self.records_written += 1
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _sanitize(value):
    """Replace non-finite floats with None, recursively."""
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else None
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def _jsonable(value):
    """Fallback encoder for numpy scalars/arrays in metadata."""
    if hasattr(value, "item"):
        try:
            return value.item()
        except (ValueError, TypeError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


# json.dumps builds a JSONEncoder per call whenever an argument is not
# the default; the sinks share this one.
_ENCODER = json.JSONEncoder(default=_jsonable, allow_nan=False)
