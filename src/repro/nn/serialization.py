"""Saving and loading model weights.

State dicts are persisted as ``.npz`` archives; parameter names become
archive keys.  Dots are legal in npz keys, so dotted module paths survive
a round trip unchanged.
"""

from __future__ import annotations

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
