"""Forecaster interfaces and the quantile-forecast container.

Definitions 1 and 2 of the paper: a forecaster maps a context window
``w = {w_1..w_T}`` to future workloads; a *quantile* forecaster predicts
``{w-hat^tau_(T+1) .. w-hat^tau_(T+H)}`` for prespecified quantile levels
tau.  :class:`QuantileForecast` is the exchange format between the
Probabilistic Workload Forecaster and the Robust Auto-Scaling Manager.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nn.serialization import _decode_value, load_state, save_state

__all__ = ["QuantileForecast", "Forecaster", "PointForecaster", "DEFAULT_QUANTILE_LEVELS"]

# The grid used throughout the paper's scaling experiments (Section IV-C).
DEFAULT_QUANTILE_LEVELS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass
class QuantileForecast:
    """Quantile forecasts for one horizon.

    Attributes
    ----------
    levels:
        Sorted quantile levels, shape (L,).
    values:
        Forecasts per level, shape (L, H).
    mean:
        Optional point/mean forecast, shape (H,).  When absent,
        :attr:`point` falls back to the median.
    """

    levels: np.ndarray
    values: np.ndarray
    mean: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.levels = np.asarray(self.levels, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.levels.ndim != 1:
            raise ValueError("levels must be 1-D")
        if self.values.shape[0] != len(self.levels):
            raise ValueError(
                f"values first axis ({self.values.shape[0]}) must match "
                f"number of levels ({len(self.levels)})"
            )
        # A 7-11 level grid is checked as Python floats: numpy's wrappers
        # cost more per call than the whole scan.  NaN compares false
        # everywhere, as it does in the array form.
        grid = self.levels.tolist()
        if any(level <= 0 or level >= 1 for level in grid):
            raise ValueError("quantile levels must lie in (0, 1)")
        if any(upper - lower <= 0 for lower, upper in zip(grid, grid[1:])):
            raise ValueError("levels must be strictly increasing")
        if self.mean is not None:
            self.mean = np.asarray(self.mean, dtype=np.float64)
            if self.mean.shape != (self.horizon,):
                raise ValueError("mean must have shape (horizon,)")

    @property
    def horizon(self) -> int:
        return self.values.shape[1]

    def at(self, tau: float) -> np.ndarray:
        """Forecast series at quantile level ``tau``.

        Exact if ``tau`` is on the grid; otherwise linearly interpolated
        between neighbouring levels (only possible within the grid's
        range).  Grid models (TFT) must be queried on-grid or in-range;
        parametric models expose arbitrary levels natively and build
        a dense grid before wrapping results in this container.
        """
        # np.isclose's default test (rtol=1e-5, atol=1e-8), first match
        # wins; an infinite tau would make the tolerance infinite, hence
        # the finiteness check.
        if math.isfinite(tau):
            tolerance = 1e-8 + 1e-5 * abs(tau)
            for index, level in enumerate(self.levels.tolist()):
                if abs(level - tau) <= tolerance:
                    return self.values[index]
        if tau < self.levels[0] or tau > self.levels[-1]:
            raise ValueError(
                f"tau={tau} outside forecast grid [{self.levels[0]}, {self.levels[-1]}]"
            )
        upper = int(np.searchsorted(self.levels, tau))
        lower = upper - 1
        weight = (tau - self.levels[lower]) / (self.levels[upper] - self.levels[lower])
        return (1.0 - weight) * self.values[lower] + weight * self.values[upper]

    @property
    def median(self) -> np.ndarray:
        """The 0.5-quantile forecast (interpolated if not on the grid)."""
        return self.at(0.5)

    @property
    def point(self) -> np.ndarray:
        """Point forecast: the model mean if available, else the median."""
        return self.mean if self.mean is not None else self.median

    def as_dict(self) -> dict[float, np.ndarray]:
        """Mapping tau -> series, the format the metrics module consumes."""
        return {float(tau): self.values[i] for i, tau in enumerate(self.levels)}


class Forecaster(ABC):
    """Probabilistic workload forecaster (Definition 2).

    Lifecycle: construct with hyperparameters, :meth:`fit` on a historical
    series, then :meth:`predict` quantiles for the steps following a
    context window.
    """

    #: set by fit(); guards predict()
    _fitted: bool = False

    #: grid served when ``predict(levels=None)``; parametric models keep
    #: the paper's Section IV-C grid, grid-trained models (TFT, quantile
    #: regression) override this with their trained grid.
    default_levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS

    @abstractmethod
    def fit(self, series: np.ndarray) -> "Forecaster":
        """Train on a historical workload series (1-D array)."""

    @abstractmethod
    def predict(
        self,
        context: np.ndarray,
        levels: tuple[float, ...] | None = None,
        start_index: int = 0,
    ) -> QuantileForecast:
        """Forecast the ``horizon`` steps following ``context``.

        Parameters
        ----------
        context:
            The most recent ``context_length`` workload values.
        levels:
            Quantile levels to report; ``None`` (accepted by every
            forecaster) serves the model's :attr:`default_levels`.
            Grid-based models may require explicit levels to be inside
            their trained grid.
        start_index:
            Absolute time index of ``context[0]`` in the original trace;
            used to phase-align calendar features (time of day / week).
            Forecasters without calendar features accept and ignore it —
            their docstrings say so explicitly.
        """

    def _resolve_levels(
        self, levels: "tuple[float, ...] | None"
    ) -> tuple[float, ...]:
        """Uniform ``levels=None`` handling: sorted explicit levels or
        the model's :attr:`default_levels`."""
        if levels is None:
            return tuple(self.default_levels)
        if len(levels) == 0:
            raise ValueError("levels must be non-empty or None")
        return tuple(sorted(levels))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} used before fit()")

    # -- persistence -----------------------------------------------------
    # A family crosses a restart through the state protocol:
    # ``state_dict()``, everything ``fit`` produced as one JSON-safe dict
    # (arrays as ``_encode_value`` records), and ``load_state_dict(state)``,
    # which puts it into a forecaster built with the same arguments -
    # whole, or not at all with a ValueError that starts with the entry's
    # name.  A family without the pair is rebuilt as constructed.
    def save(self, path: "str | Path") -> None:
        """Write :meth:`state_dict` to ``path`` (.npz): arrays under their
        names, everything else as one JSON text entry, ``"json"``.

        Hyperparameters are not stored; reconstruct the forecaster with
        the same constructor arguments, then :meth:`load`.
        """
        state = {key: _decode_value(value) for key, value in self.state_dict().items()}
        arrays = {key: value for key, value in state.items() if isinstance(value, np.ndarray)}
        rest = {key: value for key, value in state.items() if key not in arrays}
        save_state({**arrays, "json": np.array(json.dumps(rest))}, path)

    def load(self, path: "str | Path") -> "Forecaster":
        """Restore a file written by :meth:`save` into this (same-config)
        forecaster; returns self, ready to predict without retraining."""
        state = load_state(path)
        if "json" not in state:
            raise ValueError(f"{path}: not a forecaster state file (no 'json' entry)")
        state.update(json.loads(state.pop("json").item()))
        return self.load_state_dict(state)


def _read_state(state: dict, spec: dict) -> dict:
    """``state`` checked against ``spec`` before a forecaster assigns any of it.

    ``spec`` names exactly the entries a family writes: a list is the
    shape of a float64 array (``-1`` for any length; a record or an
    ndarray), an ndarray the shape and dtype an entry must have (a
    network's parameter), a type that of a JSON value.  Arrays keep
    their dtype: none is widened or narrowed on the way in.
    """
    if not isinstance(state, dict):
        raise ValueError(f"state: expected a dict, got {type(state).__name__}")
    odd = min(state.keys() ^ spec.keys(), default=None)
    if odd is not None:
        problem = "missing from" if odd in spec else "not an entry of"
        raise ValueError(f"{odd}: {problem} this family's state")
    values = {}
    for key, want in spec.items():
        try:
            value = _decode_value(state[key])
        except ValueError as error:
            raise ValueError(f"{key}: {error}") from error
        if isinstance(want, type):
            if not isinstance(value, want):
                raise ValueError(f"{key}: expected {want.__name__}, got {type(value).__name__}")
        else:
            dtype = want.dtype if isinstance(want, np.ndarray) else np.dtype(np.float64)
            want = list(want.shape) if isinstance(want, np.ndarray) else want
            if not isinstance(value, np.ndarray) or value.dtype != dtype:
                got = value.dtype if isinstance(value, np.ndarray) else type(value).__name__
                raise ValueError(f"{key}: expected a {dtype} array, got {got}")
            if len(want) != value.ndim or any(w not in (-1, n) for w, n in zip(want, value.shape)):
                raise ValueError(f"{key}: expected shape {want}, got {list(value.shape)}")
        values[key] = value
    return values


def _load_state(forecaster, state: dict, field_name: str):
    """``forecaster.load_state_dict(state)``, a refusal prefixed with ``field_name``."""
    if not hasattr(forecaster, "load_state_dict"):
        raise ValueError(f"{field_name}: {type(forecaster).__name__} cannot load a state")
    try:
        return forecaster.load_state_dict(state)
    except ValueError as error:
        raise ValueError(f"{field_name}.{error}") from error


class PointForecaster(ABC):
    """Single-valued forecaster (Definition 1) — the baseline paradigm."""

    _fitted: bool = False

    @abstractmethod
    def fit(self, series: np.ndarray) -> "PointForecaster":
        """Train on a historical workload series (1-D array)."""

    @abstractmethod
    def predict_point(self, context: np.ndarray, start_index: int = 0) -> np.ndarray:
        """Forecast the horizon as a single series of expected values."""

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} used before fit()")
