"""Saving and loading model weights, and the one codec of every state dict.

State dicts are persisted as ``.npz`` archives; parameter names become
archive keys.  Dots are legal in npz keys, so dotted module paths survive
a round trip unchanged.  Inside JSON (a checkpoint's ``state.json``) every
value goes through :func:`_encode_value`.
"""

from __future__ import annotations

import base64
from collections import deque
from pathlib import Path

import numpy as np

__all__ = ["save_state", "load_state"]


def save_state(state: dict[str, np.ndarray], path: str | Path) -> None:
    """Write a state dict to ``path`` (.npz)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **state)


def load_state(path: str | Path) -> dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state`."""
    with np.load(Path(path)) as archive:
        return {key: archive[key] for key in archive.files}


def _encode_value(value):
    """JSON-safe encoding of checkpointed values: the one codec.

    An ndarray becomes ``{"__ndarray__": base64 of its C-order bytes,
    "dtype": arr.dtype.str, "shape": [...]}`` — exact for every bit
    pattern (NaN, infinities, ``-0.0``) and far cheaper to write than a
    ``repr`` per number.  Numpy scalars unwrap, a
    :class:`~repro.core.plan.ScalingPlan` becomes its ``to_state()``, an
    object with a ``state_dict()`` (a forecaster, a health monitor) that
    dict, a deque, a list or a tuple a new list; the rest passes through.
    """
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": base64.b64encode(value.tobytes()).decode("ascii"),
            "dtype": value.dtype.str,
            "shape": list(value.shape),
        }
    if isinstance(value, np.generic):
        return value.item()
    if hasattr(value, "to_state"):
        return value.to_state()
    if hasattr(value, "state_dict"):
        return value.state_dict()
    if isinstance(value, (deque, list, tuple)):
        return list(value)
    return value


def _decode_value(value):
    """Inverse of :func:`_encode_value` for arrays, which come back writable.

    A record whose bytes do not fill ``shape`` x ``dtype`` is a ValueError.
    JSON carries no type tag for the containers: a plan comes back as its
    ``to_state`` dict and a deque as a list, for the reader that knows the
    field (``ScalingPlan.from_state``, ``deque(..., maxlen=)``).
    """
    if not (isinstance(value, dict) and "__ndarray__" in value):
        return value
    try:
        raw = base64.b64decode(value["__ndarray__"], validate=True)
        array = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
        return array.reshape(value["shape"]).copy()
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed __ndarray__ record: {error!r}") from error
