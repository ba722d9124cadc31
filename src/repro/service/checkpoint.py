"""Lossless checkpoint/restore for the service runtime.

A checkpoint is a directory:

* ``state.json`` — the loop state: ``runtime`` is the fields of
  :class:`~repro.core.runtime.RuntimeState` (what the loop reads back
  on its next tick — clock, context window, plan in force, counters —
  and no decision history, so its size does not grow with uptime),
  health monitor + drift detectors + alert engine
  (:meth:`~repro.obs.monitor.ModelHealthMonitor.state_dict`), the
  source position, the forecaster's sampler rng state, and the config
  the daemon was launched with (so ``repro-autoscale serve --restore``
  can rebuild the planner identically).  Every ndarray in it is a
  raw-byte record (``{"__ndarray__": base64, "dtype", "shape"}``, see
  :mod:`repro.core.plan`), never a list of numbers;
* ``model.npz`` — the forecaster's weights, written through the
  forecaster's own ``save()`` (which persists via
  :mod:`repro.nn.serialization`), when the model supports it.
  Deterministically-fitted models without a ``save()`` (seasonal
  naive, ARIMA) are rebuilt from config by refitting instead.

Each file is published atomically (temp file in the same directory +
``os.replace``), weights first, so a crash mid-checkpoint leaves every
file either old or new, never truncated.  The audit trail is not in the
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

__all__ = [
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "restore_from_checkpoint",
]

CHECKPOINT_VERSION = 3

_STATE_FILE = "state.json"
_MODEL_FILE = "model.npz"
#: Fields :func:`restore_from_checkpoint` reads unconditionally.
_REQUIRED_FIELDS = {
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


def _sampler_state(planner: Any) -> dict | None:
    """Bit-exact rng state of a stochastic forecaster's sampler."""
    forecaster = _find_forecaster(planner)
    rng = getattr(forecaster, "_sample_rng", None)
    if rng is None:
        return None
    return rng.bit_generator.state


def _restore_sampler(planner: Any, state: dict | None) -> None:
    if state is None:
        return
    forecaster = _find_forecaster(planner)
    rng = getattr(forecaster, "_sample_rng", None)
    if rng is None:
        raise ValueError(
            "checkpoint carries sampler rng state but the restored planner "
            "has no stochastic sampler — model/config mismatch"
        )
    rng.bit_generator.state = state


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
        The live planner; used to capture sampler rng state and, when
        the underlying forecaster supports ``save()``, model weights.
        Defaults to ``runtime.planner``.
    config:
        Launch configuration to embed — ``serve --restore`` rebuilds
        the planner/source from it before loading state.
    source_position:
        Ticks the telemetry source has emitted; a replayable source is
        resumed from here.
    adaptation:
        Optional :class:`~repro.adaptation.AdaptationManager`; its full
        state machine (candidate and rollback models included, embedded
        as base64 pickle blobs) is checkpointed under ``"adaptation"``
        so a restored daemon resumes mid-shadow bit-identically.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    planner = planner if planner is not None else runtime.planner

    model_file = None
    forecaster = _find_forecaster(planner)
    if forecaster is not None and hasattr(forecaster, "save"):
        # np.savez appends ".npz" to any other suffix: keep it on the temp.
        tmp = path / ("tmp." + _MODEL_FILE)
        forecaster.save(tmp)
        os.replace(tmp, path / _MODEL_FILE)
        model_file = _MODEL_FILE

    monitor = getattr(runtime, "monitor", None)
    state = {
        "version": CHECKPOINT_VERSION,
        "config": dict(config) if config else {},
        "source_position": int(source_position),
        "runtime": runtime.state_dict(),
        "monitor": monitor.state_dict() if monitor is not None else None,
        "sampler": _sampler_state(planner),
        # Fault wrappers (FlakyPlanner) consume scheduled events as they
        # fire; that progress must survive the crash or restored runs
        # would re-fire already-consumed faults.
        "planner": _planner_state(planner),
        "model_file": model_file,
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
    not state), then this function restores the dynamic state: loop
    clock and plan, monitor windows and detectors, model weights,
    sampler rng, and — when the checkpoint carries it — the adaptation
    state machine (restored last, so a promoted model overrides the
    config-rebuilt forecaster).  Returns the source position to resume
    from.
    """
    state = (
        checkpoint if isinstance(checkpoint, dict) else load_checkpoint(checkpoint)
    )
    planner = planner if planner is not None else runtime.planner
    runtime.load_state_dict(state["runtime"])
    monitor = getattr(runtime, "monitor", None)
    if state["monitor"] is not None:
        if monitor is None:
            raise ValueError(
                "checkpoint carries monitor state but the restored runtime "
                "has no monitor attached — pass the same --monitor flags"
            )
        monitor.load_state_dict(state["monitor"])
    model_file = state.get("model_file")
    if model_file is not None and not isinstance(checkpoint, dict):
        forecaster = _find_forecaster(planner)
        if forecaster is not None and hasattr(forecaster, "load"):
            forecaster.load(Path(checkpoint) / model_file)
    _restore_sampler(planner, state.get("sampler"))
    _restore_planner(planner, state.get("planner"))
    if state.get("adaptation") is not None:
        if adaptation is None:
            raise ValueError(
                "checkpoint carries adaptation state but no "
                "AdaptationManager was passed — restore with --adapt"
            )
        adaptation.load_state_dict(state["adaptation"])
    return int(state["source_position"])
