"""QueryBot 5000 (QB5000) hybrid point forecaster.

The paper's learned point-forecast baseline (Section IV-A2): "A hybrid
forecaster that combines linear regression, long short-term memory
network, and kernel regression" (Ma et al., SIGMOD 2018).  Following the
original design:

* **linear regression** on the context window, solved in closed form with
  one multi-output least-squares system (fast, captures level + trend);
* **LSTM** trained with MSE through a direct multi-horizon head (captures
  nonlinear seasonal structure);
* **kernel regression** (Nadaraya–Watson over historical windows), which
  QB5000 uses to recover recurring spike patterns that the other two
  smooth away.

The ensemble averages the component forecasts.
"""

from __future__ import annotations

import numpy as np

from ..nn import LSTM, Linear, Module, fastgrad
from .base import PointForecaster
from .neural import NeuralForecaster, TrainingConfig

__all__ = ["QB5000Forecaster", "LinearRegressionForecaster", "KernelRegressionForecaster"]


class LinearRegressionForecaster(PointForecaster):
    """Direct multi-horizon linear regression on the context window."""

    def __init__(self, context_length: int, horizon: int, ridge: float = 1e-3) -> None:
        self.context_length = context_length
        self.horizon = horizon
        self.ridge = ridge
        self.weights: np.ndarray | None = None  # (context+1, horizon)

    def fit(self, series: np.ndarray) -> "LinearRegressionForecaster":
        series = np.asarray(series, dtype=np.float64)
        window = self.context_length + self.horizon
        if len(series) < window + 1:
            raise ValueError("series too short")
        rows = len(series) - window + 1
        windows = np.lib.stride_tricks.sliding_window_view(series, window)
        contexts = windows[:, : self.context_length]
        targets = windows[:, self.context_length :]
        design = np.column_stack([np.ones(rows), contexts])
        gram = design.T @ design + self.ridge * np.eye(design.shape[1])
        self.weights = np.linalg.solve(gram, design.T @ targets)
        self._fitted = True
        return self

    def predict_point(self, context: np.ndarray, start_index: int = 0) -> np.ndarray:
        self._require_fitted()
        context = np.asarray(context, dtype=np.float64)[-self.context_length :]
        return np.concatenate([[1.0], context]) @ self.weights


class KernelRegressionForecaster(PointForecaster):
    """Nadaraya–Watson: weight historical horizons by context similarity.

    The bandwidth is set to a low percentile (5th) of the pairwise
    context distances, keeping the kernel local so that genuinely
    similar historical windows dominate the prediction — QB5000 uses
    this component precisely to recall recurring spiky patterns that
    global models smooth away.  ``max_windows`` bounds memory on long
    traces.
    """

    def __init__(self, context_length: int, horizon: int, max_windows: int = 2000) -> None:
        self.context_length = context_length
        self.horizon = horizon
        self.max_windows = max_windows
        self._contexts: np.ndarray | None = None
        self._futures: np.ndarray | None = None
        self._bandwidth = 1.0

    def fit(self, series: np.ndarray) -> "KernelRegressionForecaster":
        series = np.asarray(series, dtype=np.float64)
        window = self.context_length + self.horizon
        if len(series) < window + 1:
            raise ValueError("series too short")
        rows = len(series) - window + 1
        stride = max(1, rows // self.max_windows)
        starts = np.arange(0, rows, stride)
        windows = np.lib.stride_tricks.sliding_window_view(series, window)
        self._contexts = windows[starts, : self.context_length]
        self._futures = windows[starts, self.context_length :]
        sample = self._contexts[:: max(1, len(self._contexts) // 200)]
        distances = np.linalg.norm(sample[:, None, :] - sample[None, :, :], axis=-1)
        positive = distances[distances > 0]
        self._bandwidth = float(np.quantile(positive, 0.05)) if positive.size else 1.0
        if self._bandwidth <= 0:
            self._bandwidth = 1.0
        self._fitted = True
        return self

    def predict_point(self, context: np.ndarray, start_index: int = 0) -> np.ndarray:
        self._require_fitted()
        context = np.asarray(context, dtype=np.float64)[-self.context_length :]
        distances = np.linalg.norm(self._contexts - context[None, :], axis=-1)
        weights = np.exp(-0.5 * (distances / self._bandwidth) ** 2)
        total = weights.sum()
        if total < 1e-300:
            # Degenerate kernel: fall back to the nearest window.
            return self._futures[np.argmin(distances)].copy()
        return (weights[:, None] * self._futures).sum(axis=0) / total


class _LSTMPointNetwork(Module):
    """LSTM encoder -> direct multi-horizon linear head."""

    def __init__(self, hidden_size: int, horizon: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.lstm = LSTM(1, hidden_size, rng)
        self.head = Linear(hidden_size, horizon, rng)

    def fast_forward(self, context: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """Context (B, T) -> point forecast (B, H) from the last hidden state."""
        caches = None if cache is None else []
        hidden, _ = self.lstm.fast_forward(context[..., None], cache=caches)
        last = hidden[:, -1, :]
        if cache is not None:
            cache.update(lstm=caches, hidden_shape=hidden.shape, last=last)
        return self.head.fast_forward(last)

    def backward(self, cache: dict, dprediction: np.ndarray) -> None:
        """Closed-form backward of a cached :meth:`fast_forward`."""
        dhidden = np.zeros(cache["hidden_shape"], dtype=cache["last"].dtype)
        dhidden[:, -1, :] = self.head.backward(cache["last"], dprediction)
        grads, _, _ = fastgrad.lstm_backward(dhidden, cache["lstm"], self.lstm.hidden_size)
        self.lstm.accumulate_grads(grads)


class _LSTMPointForecaster(NeuralForecaster):
    """MSE-trained LSTM component of QB5000."""

    _network_dtype = np.dtype(np.float32)  # predict is an LSTM scan (docs/nn.md, Precision)

    def __init__(
        self,
        context_length: int,
        horizon: int,
        hidden_size: int = 32,
        config: TrainingConfig | None = None,
    ) -> None:
        super().__init__(context_length, horizon, config)
        self.hidden_size = hidden_size

    def _build(self, rng: np.random.Generator) -> Module:
        return _LSTMPointNetwork(self.hidden_size, self.horizon, rng)

    def _forward_loss(
        self,
        context: np.ndarray,
        horizon: np.ndarray,
        start_indices: np.ndarray,
        cache: dict | None = None,
    ) -> tuple[float, np.ndarray]:
        """Mean squared error and its gradient w.r.t. the prediction."""
        assert self.network is not None
        context, horizon = self._at_entry(context, horizon)
        diff = self.network.fast_forward(context, cache) - horizon
        scale = 1.0 / diff.size
        return float((diff * diff).sum() * scale), diff * (2.0 * scale)

    def predict(self, context, levels=None, start_index: int = 0):
        raise NotImplementedError("internal point model; use predict_point")

    def predict_point(self, context: np.ndarray, start_index: int = 0) -> np.ndarray:
        self._require_fitted()
        normalised = self.scaler.transform(np.asarray(context, dtype=np.float64))[None, :]
        # The scan casts its input to the weights' float32; the scaler widens the output.
        return self.scaler.inverse_transform(self.network.fast_forward(normalised)[0])


class QB5000Forecaster(PointForecaster):
    """The QB5000 ensemble: mean of LR, LSTM, and kernel-regression forecasts."""

    def __init__(
        self,
        context_length: int,
        horizon: int,
        hidden_size: int = 32,
        config: TrainingConfig | None = None,
    ) -> None:
        self.context_length = context_length
        self.horizon = horizon
        self.linear = LinearRegressionForecaster(context_length, horizon)
        self.lstm = _LSTMPointForecaster(context_length, horizon, hidden_size, config)
        self.kernel = KernelRegressionForecaster(context_length, horizon)

    def fit(self, series: np.ndarray) -> "QB5000Forecaster":
        series = np.asarray(series, dtype=np.float64)
        self.linear.fit(series)
        self.lstm.fit(series)
        self.kernel.fit(series)
        self._fitted = True
        return self

    def predict_point(self, context: np.ndarray, start_index: int = 0) -> np.ndarray:
        self._require_fitted()
        components = [
            self.linear.predict_point(context, start_index),
            self.lstm.predict_point(context, start_index),
            self.kernel.predict_point(context, start_index),
        ]
        return np.mean(components, axis=0)
