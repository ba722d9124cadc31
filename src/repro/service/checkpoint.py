"""Lossless checkpoint/restore for the service runtime.

A checkpoint is a directory holding one file, ``state.json``: ``runtime``
is the fields of :class:`~repro.core.runtime.RuntimeState` (what the
loop reads back on its next tick — clock, context window, plan in force,
counters — and no decision history, so its size does not grow with
uptime), ``monitor`` the health monitor + its one drift detector (since
version 8) + alert engine
(:meth:`~repro.obs.monitor.ModelHealthMonitor.state_dict`; since version
7 the engine's ledgers carry the SLOs' error budgets too), ``model``
the live forecaster's ``state_dict()`` (weights, scaler, fit counters
and — for a sampling forecaster — the sampler's bit-generator state; None
for a family without the state protocol, which is rebuilt as
constructed), ``adaptation`` the adaptation state machine with its
candidate / rollback models in the same form, plus the source position
and the config the daemon was launched with, an object this module does
not interpret (``repro-autoscale serve`` writes its
:class:`~repro.loop.LoopSpec` record and tick feed there since version 6,
and ``--restore`` rebuilds the loop from them).  Every ndarray in it
is a raw-byte record (``{"__ndarray__": base64, "dtype", "shape"}``, see
:mod:`repro.core.plan`), never a list of numbers, and nothing in it is
executed on load.  A weight keeps its dtype (float32 for the LSTM families
since version 5): one unlike its skeleton parameter's is refused.

The file is published atomically (temp file in the same directory +
``os.replace``), so a crash mid-checkpoint leaves the previous
checkpoint whole.  The audit trail is not in the
checkpoint: it is the JSONL event log written by ``--telemetry`` /
``--decisions-out`` (crash-safe :class:`~repro.obs.sinks.JsonlSink`,
flushed per record), which also covers the tail between the last
checkpoint and the crash.  A restored process starts ``/decisions``
empty and its ``total`` continuous (``RuntimeState.decisions_committed``).

The restore guarantee: given the same remaining tick stream (a
replayable source resumed at the recorded position), a restored loop
produces bit-identical subsequent decisions, monitor windows, drift
events, and alerts as the uninterrupted run — including stochastic
forecasters, whose ancestral-sampling rng state round-trips exactly.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..core.plan import _decode_value, _forecaster_owner
from ..forecast.base import _load_state

__all__ = [
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "restore_from_checkpoint",
]

CHECKPOINT_VERSION = 8

_STATE_FILE = "state.json"
#: Fields :func:`restore_from_checkpoint` and its caller read unconditionally.
_REQUIRED_FIELDS = {
    "config": dict,
    "source_position": int,
    "runtime": dict,
    "monitor": (dict, type(None)),
}


def _find_forecaster(planner: Any):
    """The forecaster behind a planner, unwrapping fault wrappers."""
    return getattr(_forecaster_owner(planner), "forecaster", None)


def _planner_state(planner: Any) -> dict | None:
    """Mutable planner-wrapper state (e.g. FlakyPlanner's fault queue).

    ``state_dict`` must be defined on the planner's own class —
    delegating wrappers forward attribute lookups to their inner
    planner, and saving an inner planner's state under the wrapper's
    key would corrupt the restore.
    """
    if "state_dict" in type(planner).__dict__:
        return planner.state_dict()
    return None


def _restore_planner(planner: Any, state: dict | None) -> None:
    if state is None:
        return
    if "load_state_dict" not in type(planner).__dict__:
        raise ValueError(
            "checkpoint carries planner state but the restored planner "
            "cannot load it — planner/config mismatch"
        )
    planner.load_state_dict(state)


def save_checkpoint(
    path: str | Path,
    *,
    runtime,
    planner=None,
    config: dict | None = None,
    source_position: int = 0,
    adaptation=None,
) -> Path:
    """Write a complete checkpoint directory; returns its path.

    Parameters
    ----------
    path:
        Checkpoint directory (created if needed; overwritten in place).
    runtime:
        The :class:`~repro.core.runtime.AutoscalingRuntime` whose
        ``state`` is snapshotted (its attached monitor rides along; its
        ``decisions`` / ``provenance`` audit lists do not).
    planner:
        The live planner; its forecaster's ``state_dict()``, when the
        family has one, is the checkpoint's ``"model"``.  Defaults to
        ``runtime.planner``.
    config:
        Launch configuration to embed — ``serve --restore`` rebuilds
        the planner/source from it before loading state.
    source_position:
        Ticks the telemetry source has emitted; a replayable source is
        resumed from here.
    adaptation:
        Optional :class:`~repro.adaptation.AdaptationManager`; its full
        state machine (candidate and rollback models included) is
        checkpointed under ``"adaptation"`` so a restored daemon resumes
        mid-shadow bit-identically.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    planner = planner if planner is not None else runtime.planner
    forecaster = _find_forecaster(planner)
    monitor = getattr(runtime, "monitor", None)
    state = {
        "version": CHECKPOINT_VERSION,
        "config": dict(config) if config else {},
        "source_position": int(source_position),
        "runtime": runtime.state_dict(),
        "monitor": monitor.state_dict() if monitor is not None else None,
        "model": (
            forecaster.state_dict() if hasattr(forecaster, "state_dict") else None
        ),
        # Fault wrappers (FlakyPlanner) consume scheduled events as they
        # fire; that progress must survive the crash or restored runs
        # would re-fire already-consumed faults.
        "planner": _planner_state(planner),
        "adaptation": (
            adaptation.state_dict() if adaptation is not None else None
        ),
    }
    # Atomic publish: a crash mid-write must not corrupt the previous
    # checkpoint under the same path.
    tmp = path / (_STATE_FILE + ".tmp")
    tmp.write_bytes(json.dumps(state, separators=(",", ":")).encode("ascii"))
    os.replace(tmp, path / _STATE_FILE)
    return path


def _check_arrays(node: "dict | list", field: str = "") -> None:
    """Raise ``ValueError`` naming the first undecodable array record."""
    if isinstance(node, list):
        for index, value in enumerate(node):
            if isinstance(value, (dict, list)):
                _check_arrays(value, f"{field}[{index}]")
    elif "__ndarray__" in node:
        try:
            _decode_value(node)
        except ValueError as error:
            raise ValueError(f"field {field.lstrip('.')!r}: {error}") from error
    else:
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                _check_arrays(value, f"{field}.{key}")


def load_checkpoint(path: str | Path) -> dict:
    """Read and validate a checkpoint's ``state.json``.

    Runs before :func:`restore_from_checkpoint` touches any object:
    unparseable or non-object JSON, another format version, a missing
    top-level field, or an array record whose bytes do not match its
    ``shape`` and ``dtype`` raise ``ValueError`` naming the file and
    the offending field.
    """
    path = Path(path)
    state_path = path / _STATE_FILE if path.is_dir() else path
    try:
        state = json.loads(state_path.read_bytes())
    except FileNotFoundError:
        raise FileNotFoundError(f"no checkpoint at {path} ({state_path} missing)")
    except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"corrupt checkpoint {state_path}: {error}") from error
    if not isinstance(state, dict):
        raise ValueError(f"corrupt checkpoint {state_path}: not a JSON object")
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} in {state_path} "
            f"(this build reads and writes version {CHECKPOINT_VERSION} only)"
        )
    try:
        for key, kind in _REQUIRED_FIELDS.items():
            if not isinstance(state.get(key, ...), kind):
                raise ValueError(f"field {key!r} is missing or malformed")
        _check_arrays(state)
    except ValueError as error:
        raise ValueError(f"corrupt checkpoint {state_path}: {error}") from error
    return state


def restore_from_checkpoint(
    checkpoint: "dict | str | Path",
    *,
    runtime,
    planner=None,
    adaptation=None,
) -> int:
    """Load checkpoint state into freshly-constructed objects.

    The caller rebuilds the runtime, monitor, and planner from the
    checkpoint's ``config`` (architecture and rules are configuration,
    not state), then this function restores the dynamic state.  The
    models go first — the live forecaster's ``state_dict`` into the
    planner's forecaster, or, with an adaptation state, all three
    through :meth:`AdaptationManager.load_state_dict
    <repro.adaptation.AdaptationManager.load_state_dict>` — and each
    loads whole or not at all, so a state that does not fit the
    configured family raises before runtime, monitor or manager are
    touched.  Then the loop clock and plan, monitor windows and
    detector, and planner-wrapper state.  Returns the source position
    to resume from.
    """
    state = (
        checkpoint if isinstance(checkpoint, dict) else load_checkpoint(checkpoint)
    )
    planner = planner if planner is not None else runtime.planner
    monitor = getattr(runtime, "monitor", None)
    if state["monitor"] is not None and monitor is None:
        raise ValueError(
            "checkpoint carries monitor state but the restored runtime "
            "has no monitor attached — pass the same --monitor flags"
        )
    if state.get("adaptation") is not None:
        if adaptation is None:
            raise ValueError(
                "checkpoint carries adaptation state but no "
                "AdaptationManager was passed — restore with --adapt"
            )
        adaptation.load_state_dict(state["adaptation"], model=state.get("model"))
    elif state.get("model") is not None:
        _load_state(_find_forecaster(planner), state["model"], "model")
    runtime.load_state_dict(state["runtime"])
    if state["monitor"] is not None:
        monitor.load_state_dict(state["monitor"])
    _restore_planner(planner, state.get("planner"))
    return int(state["source_position"])
