"""Exhaustive grid search, for small discrete spaces.

Used by the Fig. 11/12 experiments to sweep (tau1, tau2) combinations
and uncertainty thresholds deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

__all__ = ["grid_search", "GridResult"]


@dataclass(frozen=True)
class GridResult:
    """One grid point and its objective value."""

    params: dict[str, object]
    value: float


def _evaluate_point(context: dict, combo: tuple) -> float:
    """One grid point; module-level so multiprocessing workers can pickle it."""
    params = dict(zip(context["names"], combo))
    return float(context["objective"](params))


def grid_search(
    objective: Callable[[dict[str, object]], float],
    space: dict[str, list],
    direction: str = "minimize",
    n_jobs: int = 1,
) -> tuple[GridResult, list[GridResult]]:
    """Evaluate every combination in ``space``.

    Returns (best, all_results).  ``space`` maps parameter name to the
    list of values to try; combinations are the Cartesian product in
    insertion order, so results are deterministic — including under
    ``n_jobs >= 2``, which fans grid points across spawn workers but
    keeps results in product order (ties for best resolve identically,
    and worker telemetry merges back into the ambient registry).  For
    parallel runs ``objective`` must be picklable (a module-level
    function or functools.partial of one, not a lambda or closure).
    """
    from ..parallel import parallel_map

    if direction not in ("minimize", "maximize"):
        raise ValueError(f"unknown direction {direction!r}")
    if not space:
        raise ValueError("space must not be empty")
    names = list(space)
    combos = list(itertools.product(*(space[name] for name in names)))
    values = parallel_map(
        _evaluate_point, combos, {"objective": objective, "names": names}, n_jobs=n_jobs
    )
    results = [
        GridResult(params=dict(zip(names, combo)), value=value)
        for combo, value in zip(combos, values)
    ]
    key = (lambda r: r.value) if direction == "minimize" else (lambda r: -r.value)
    return min(results, key=key), results
