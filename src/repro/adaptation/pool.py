"""Model-pool reselection: pick the best candidate family on a holdout.

Warm-starting the incumbent (:meth:`AdaptationManager.refit` with
``strategy="warm"``) assumes the model *family* is still right and only
the weights went stale.  When the regime change is structural — a new
seasonality, a different noise profile — the better move is to refit
several candidate families and let a holdout decide.  A
:class:`ModelPool` holds named zero-argument factories; ``select()``
fits each candidate on the history minus a holdout tail, scores its
quantile forecast over that tail by mean wQL, refits the winner on the
full history, and hands it back as the shadow candidate.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..evaluation.metrics import weighted_quantile_loss
from ..obs import get_registry

__all__ = ["ModelPool"]


class ModelPool:
    """Named forecaster factories competing on a holdout tail.

    Factories must be zero-argument callables returning an *unfitted*
    forecaster whose ``predict`` horizon covers the runtime's horizon.
    Registration order breaks score ties (first registered wins), so
    selection is deterministic.
    """

    def __init__(
        self,
        factories: "dict[str, Callable[[], Any]] | None" = None,
    ) -> None:
        self._factories: dict[str, Callable[[], Any]] = dict(factories or {})

    def register(self, name: str, factory: "Callable[[], Any]") -> "ModelPool":
        if name in self._factories:
            raise ValueError(f"candidate {name!r} already registered")
        self._factories[name] = factory
        return self

    def names(self) -> list[str]:
        return list(self._factories)

    def create(self, name: str) -> Any:
        """A new unfitted forecaster from the factory registered as ``name``."""
        return self._factories[name]()

    def __len__(self) -> int:
        return len(self._factories)

    def select(
        self,
        series: np.ndarray,
        *,
        context_length: int,
        horizon: int,
        levels: "tuple[float, ...] | None" = None,
        start_index: int = 0,
    ) -> tuple[str, Any, dict[str, float]]:
        """Fit every candidate, score on the tail, return the winner.

        The last ``horizon`` observations are held out: each candidate
        trains on everything before them and forecasts them from the
        trailing context, scored by mean wQL over its quantile levels.
        Candidates that fail to fit (e.g. not enough history for their
        season) score ``inf`` and are recorded, not raised — one broken
        family must not block reselection.  The winner is refit on the
        *full* series before being returned.

        Returns ``(name, fitted_forecaster, scores)``.
        """
        if not self._factories:
            raise ValueError("model pool is empty")
        series = np.asarray(series, dtype=np.float64)
        if len(series) < context_length + horizon + 1:
            raise ValueError(
                f"need at least {context_length + horizon + 1} observations "
                f"to select over a {horizon}-step holdout, got {len(series)}"
            )
        train = series[:-horizon]
        context = train[-context_length:]
        target = series[-horizon:]
        context_start = start_index + len(train) - context_length

        registry = get_registry()
        scores: dict[str, float] = {}
        best_name: "str | None" = None
        best_score = np.inf
        for name, factory in self._factories.items():
            try:
                candidate = factory()
                candidate.fit(train)
                forecast = candidate.predict(
                    context, levels=levels, start_index=context_start
                )
                steps = min(forecast.horizon, horizon)
                per_level = [
                    weighted_quantile_loss(
                        target[:steps], forecast.values[i, :steps], float(tau)
                    )
                    for i, tau in enumerate(forecast.levels)
                ]
                score = float(np.mean(per_level))
            except (ValueError, RuntimeError) as error:
                registry.counter(
                    "adaptation.pool_failures", candidate=name
                ).inc()
                registry.emit_event(
                    "adaptation",
                    "adaptation.pool_candidate_failed",
                    candidate=name,
                    error=str(error),
                )
                score = float("inf")
            scores[name] = score
            if score < best_score:
                best_score = score
                best_name = name
        if best_name is None or not np.isfinite(best_score):
            raise ValueError(
                f"every pool candidate failed to fit/score: {scores}"
            )
        winner = self.create(best_name)
        winner.fit(series)
        return best_name, winner, scores
