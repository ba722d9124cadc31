"""What is left of the shared-memory suite now that the store is gone.

:mod:`repro.parallel` used to publish payload arrays into
``multiprocessing.shared_memory`` segments; it now pickles them to a
stdlib ``ProcessPoolExecutor``.  Two things the old suite pinned still
hold and stay here under their old test ids: the chunk layout (now a
private helper of ``parallel_map``) and "nothing of ours is left in
``/dev/shm``, and no worker is left alive, once the pool is shut down".
"""

from __future__ import annotations

import glob
import multiprocessing

import numpy as np
import pytest

from repro.evaluation.backtest import backtest
from repro.forecast import DeepARForecaster, TrainingConfig
from repro.parallel import _chunk_evenly as chunk_evenly
from repro.parallel import shutdown_shared_pool

# -- chunk layout ------------------------------------------------------------


def test_chunk_evenly_partitions_in_order():
    items = list(range(9))
    chunks = chunk_evenly(items, 2)
    assert chunks == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]
    assert [x for chunk in chunks for x in chunk] == items


def test_chunk_evenly_sizes_differ_by_at_most_one():
    for n, parts in [(10, 3), (7, 7), (5, 8), (1, 4)]:
        chunks = chunk_evenly(list(range(n)), parts)
        sizes = [len(c) for c in chunks]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert len(chunks) == min(parts, n)


def test_chunk_evenly_layout_depends_only_on_length_and_parts():
    a = chunk_evenly(list("abcdefgh"), 3)
    b = chunk_evenly(list(range(8)), 3)
    assert [len(c) for c in a] == [len(c) for c in b]


# -- end-to-end: nothing left behind ----------------------------------------


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    series = 100 + 20 * np.sin(np.arange(700) * 2 * np.pi / 144) + rng.normal(0, 3, 700)
    forecaster = DeepARForecaster(
        36, 12, hidden_size=8, num_layers=1, num_samples=20,
        config=TrainingConfig(epochs=1, seed=0),
    ).fit(series[:550])
    return forecaster, series[550:]


def test_backtest_leaves_no_shared_memory_behind(fitted):
    """After ``shutdown_shared_pool()`` the process has no live children
    and ``/dev/shm`` holds no ``repro*`` entry."""
    forecaster, test_values = fitted
    result = backtest(
        forecaster, test_values, 36, 12, (0.1, 0.5, 0.9),
        series_start_index=550, n_jobs=2,
    )
    assert result.num_windows > 1
    assert multiprocessing.active_children()  # the pool really ran
    shutdown_shared_pool()
    assert multiprocessing.active_children() == []
    assert glob.glob("/dev/shm/repro*") == []
