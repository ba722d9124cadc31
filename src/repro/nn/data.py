"""Dataset/DataLoader utilities for windowed time-series training.

Forecasters train on (context, horizon) windows sliced from a workload
trace.  :class:`WindowDataset` materialises those windows lazily and
:class:`DataLoader` shuffles and batches them with a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["WindowDataset", "DataLoader"]


@dataclass(frozen=True)
class Window:
    """One training example: ``context`` feeds the model, ``horizon`` is the target.

    ``start`` is the index of ``context[0]`` within its source series,
    used to phase-align calendar features.
    """

    context: np.ndarray
    horizon: np.ndarray
    start: int = 0


class WindowDataset:
    """Sliding (context, horizon) windows over one or more series.

    Parameters
    ----------
    series:
        1-D workload array, or a list of such arrays (multiple traces).
    context_length:
        Number of past steps fed to the model (paper: 72 = 12 hours).
    horizon:
        Number of future steps to predict.
    stride:
        Step between consecutive window starts; 1 uses every window.
    """

    def __init__(
        self,
        series: np.ndarray | list[np.ndarray],
        context_length: int,
        horizon: int,
        stride: int = 1,
        start_offsets: list[int] | None = None,
    ) -> None:
        if context_length < 1 or horizon < 1 or stride < 1:
            raise ValueError("context_length, horizon, and stride must all be >= 1")
        if isinstance(series, np.ndarray):
            series = [series]
        self.context_length = context_length
        self.horizon = horizon
        self.stride = stride
        self._index: list[tuple[int, int]] = []  # (series id, start)
        self._series = [np.asarray(s, dtype=np.float64) for s in series]
        if start_offsets is None:
            start_offsets = [0] * len(self._series)
        if len(start_offsets) != len(self._series):
            raise ValueError("start_offsets must match the number of series")
        self._offsets = list(start_offsets)
        window = context_length + horizon
        for sid, s in enumerate(self._series):
            if s.ndim != 1:
                raise ValueError("each series must be 1-D")
            for start in range(0, len(s) - window + 1, stride):
                self._index.append((sid, start))
        if not self._index:
            raise ValueError(
                f"no windows fit: need at least {window} points, "
                f"longest series has {max((len(s) for s in self._series), default=0)}"
            )
        # Zero-copy view of every window per series: row i is
        # series[i : i + window].  batch() gathers straight from these
        # views instead of slicing + stacking window-by-window.
        self._views = [
            np.lib.stride_tricks.sliding_window_view(s, window) for s in self._series
        ]
        self._sid_arr = np.array([sid for sid, _ in self._index])
        self._start_arr = np.array([start for _, start in self._index])
        self._abs_start_arr = self._start_arr + np.array(
            [self._offsets[sid] for sid, _ in self._index]
        )

    def __len__(self) -> int:
        return len(self._index)

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather windows ``indices`` as ``(contexts, horizons, starts)``.

        One fancy-indexed copy from the sliding-window views replaces a
        Python loop of per-window slices and a ``np.stack`` — the same
        arrays, materialised in a single gather.
        """
        indices = np.asarray(indices)
        split = self.context_length
        if len(self._series) == 1:
            full = self._views[0][self._start_arr[indices]]
        else:
            full = np.empty(
                (len(indices), split + self.horizon), dtype=np.float64
            )
            sids = self._sid_arr[indices]
            starts = self._start_arr[indices]
            for sid in np.unique(sids):
                mask = sids == sid
                full[mask] = self._views[sid][starts[mask]]
        return (
            np.ascontiguousarray(full[:, :split]),
            np.ascontiguousarray(full[:, split:]),
            self._abs_start_arr[indices],
        )

    def __getitem__(self, item: int) -> Window:
        sid, start = self._index[item]
        s = self._series[sid]
        mid = start + self.context_length
        return Window(
            context=s[start:mid],
            horizon=s[mid : mid + self.horizon],
            start=start + self._offsets[sid],
        )


class DataLoader:
    """Batches windows into (batch, time) arrays with optional shuffling."""

    def __init__(
        self,
        dataset: WindowDataset,
        batch_size: int,
        shuffle: bool = True,
        rng: np.random.Generator | None = None,
        drop_last: bool = False,
        yield_positions: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.yield_positions = yield_positions
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            chunk = order[start : start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                return
            contexts, horizons, starts = self.dataset.batch(chunk)
            if self.yield_positions:
                yield contexts, horizons, starts
            else:
                yield contexts, horizons
