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

Both the sink and the daemon's control plane write JSON through
:func:`encode`.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Protocol, runtime_checkable

import orjson

__all__ = ["Sink", "InMemorySink", "JsonlSink", "encode"]


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
        self._file: IO[bytes] | None = self.path.open("wb")
        self.records_written = 0

    def emit(self, record: dict) -> None:
        if self._file is None:
            raise ValueError(f"JsonlSink({self.path}) already closed")
        self._file.write(encode(record) + b"\n")
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


def encode(value) -> bytes:
    """One strict-JSON UTF-8 document for ``value``.

    Non-finite floats (empty-histogram min/max, inf burn rates) become
    ``null``, since no strict JSON parser accepts a bare ``NaN`` or
    ``Infinity``; non-string dict keys are stringified.  numpy values go
    through :func:`_jsonable` (not orjson's own numpy option), so a
    ``float32`` is written at its float64 value, as Python prints it.
    A value JSON cannot carry exactly - an int beyond 64 bits, a string
    holding a lone surrogate - raises ``TypeError``
    (``orjson.JSONEncodeError``) before anything is written.
    """
    return orjson.dumps(value, default=_jsonable, option=orjson.OPT_NON_STR_KEYS)


def _jsonable(value):
    """Fallback encoder for numpy values in metadata: an array becomes
    nested lists, whatever its size (a 0-d array, like a numpy scalar,
    becomes its Python scalar)."""
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)
