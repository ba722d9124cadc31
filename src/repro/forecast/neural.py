"""Shared scaffolding for the neural forecasters (MLP, DeepAR, TFT).

Centralises what all three have in common — input normalization fitted on
training data, windowed minibatch training with Adam at the paper's
lr = 1e-3, gradient clipping, and early stopping on a chronological
validation split — so each model file contains only its architecture and
loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..nn import Adam, DataLoader, Module, WindowDataset, clip_grad_norm
from ..nn.serialization import _encode_value
from ..obs import get_registry
from ..traces.dataset import StandardScaler
from .base import Forecaster, _read_state

__all__ = ["TrainingConfig", "NeuralForecaster"]


@dataclass
class TrainingConfig:
    """Hyperparameters of the shared training loop.

    The defaults are sized for the benchmark harness (minutes, not
    hours); the paper's lr = 1e-3 is kept.
    """

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    grad_clip: float = 10.0
    window_stride: int = 1
    validation_fraction: float = 0.15
    patience: int = 5  # early-stopping patience in epochs; 0 disables
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.validation_fraction < 0.5:
            raise ValueError("validation_fraction must be in [0, 0.5)")


class NeuralForecaster(Forecaster):
    """Base class: subclasses provide the network, its loss and its backward.

    Subclass contract
    -----------------
    * ``_build(rng)`` -> :class:`Module` — construct the network: one
      ``fast_forward(*inputs, cache=None)`` on raw arrays which, handed
      a ``cache`` dict, records its activations, and a
      ``backward(cache, *output_grads)`` that sweeps them in reverse,
      accumulating into every ``param.grad``.
    * ``_forward_loss(context, horizon, start_indices, cache=None)`` ->
      ``(loss, *output_grads)`` — one minibatch's input preamble, the
      network's ``fast_forward`` (passing ``cache`` through) and the
      loss kernel of :mod:`repro.nn.fastgrad`: a float loss plus its
      gradients w.r.t. the network outputs.  Inputs are already
      normalised.  Validation calls it without a cache and keeps the
      loss; a training step (:meth:`_loss_backward`) hands it a cache
      and the network's ``backward`` the rest.
    * ``predict`` — subclass-specific; use :attr:`scaler` to map in/out.

    The family decides the network's precision (docs/nn.md, Precision):
    one network, trained and served in :attr:`_network_dtype`.  Windows,
    scaler and calendar features stay float64; :meth:`_at_entry` casts
    what enters the network, and a prediction is widened to float64
    before the scaler maps it back.
    """

    #: float32 for the families whose predict is an LSTM scan (DeepAR, TFT,
    #: QB5000's LSTM); the feed-forward ones keep float64.  Not an option.
    _network_dtype = np.dtype(np.float64)

    def __init__(self, context_length: int, horizon: int, config: TrainingConfig | None = None):
        if context_length < 1 or horizon < 1:
            raise ValueError("context_length and horizon must be >= 1")
        self.context_length = context_length
        self.horizon = horizon
        self.config = config if config is not None else TrainingConfig()
        self.scaler = StandardScaler()
        self.network: Module | None = None
        self.history: list[dict] = []
        #: completed ``fit()`` calls (cold or warm) — warm refits derive
        #: their shuffling seed from it so successive refits are
        #: deterministic yet distinct from the original cold fit.
        self.fits_completed = 0

    def _in_precision(self, network: Module) -> Module:
        """``network``'s weights cast in place to :attr:`_network_dtype` (a no-op
        for float64): the one cast, of a network the cold fit or
        :meth:`load_state_dict` just built."""
        for param in network.parameters():
            param.data = param.data.astype(self._network_dtype, copy=False)
        return network

    def _at_entry(self, *arrays: np.ndarray) -> list[np.ndarray]:
        """``arrays`` cast once to the network's dtype: the float64 boundary."""
        work = next(self.network.parameters()).data.dtype
        return [array.astype(work, copy=False) for array in arrays]

    # -- subclass hooks -------------------------------------------------
    def _build(self, rng: np.random.Generator) -> Module:
        raise NotImplementedError

    def _forward_loss(
        self,
        context: np.ndarray,
        horizon: np.ndarray,
        start_indices: np.ndarray,
        cache: dict | None = None,
    ) -> tuple:
        raise NotImplementedError

    def _loss_backward(
        self, context: np.ndarray, horizon: np.ndarray, start_indices: np.ndarray
    ) -> float:
        """One minibatch's loss, with its gradients left in ``param.grad``."""
        cache: dict = {}
        loss, *output_grads = self._forward_loss(context, horizon, start_indices, cache)
        self.network.backward(cache, *output_grads)
        return loss

    # -- shared training loop -------------------------------------------
    def fit(
        self,
        series: "np.ndarray | list[np.ndarray]",
        warm_start: bool = False,
        epochs: "int | None" = None,
        start_index: int = 0,
    ) -> "NeuralForecaster":
        """Train on one series, or several (Eq. 2 sums the loss over all
        target series).  Multiple series are assumed to be phase-aligned:
        each is taken to start at absolute time index ``start_index``
        (default 0) so calendar features line up.

        Parameters
        ----------
        warm_start:
            Continue training the already-fitted network instead of
            rebuilding it: the trained weights *and* the fitted scaler
            are reused, so a drift refit starts from all learned state
            rather than from scratch.  Ignored (a cold fit happens) when
            the forecaster has never been fitted.
        epochs:
            Override ``config.epochs`` for this call only — warm refits
            typically need far fewer epochs than a cold fit.
        start_index:
            Absolute time index of the first sample of each series;
            models with calendar features use it to phase-align a refit
            on a mid-trace history window.
        """
        if isinstance(series, (list, tuple)):
            series_list = [np.asarray(s, dtype=np.float64) for s in series]
        else:
            series_list = [np.asarray(series, dtype=np.float64)]
        window = self.context_length + self.horizon
        for s in series_list:
            if len(s) < window + 1:
                raise ValueError(
                    f"series of length {len(s)} too short for "
                    f"context+horizon={window}"
                )
        warm = bool(warm_start and self.network is not None and self.scaler.fitted)
        # Warm refits keep determinism but must not replay the cold
        # fit's exact shuffling order — otherwise a refit on identical
        # data is a bit-for-bit rerun instead of continued training.
        seed = self.config.seed + (self.fits_completed if warm else 0)
        rng = np.random.default_rng(seed)
        if not warm:
            self.network = self._in_precision(self._build(rng))
            self.scaler.fit(np.concatenate(series_list))
        normalised = [self.scaler.transform(s) for s in series_list]

        val_lens = [int(len(s) * self.config.validation_fraction) for s in series_list]
        use_validation = self.config.patience > 0 and all(v >= window for v in val_lens)
        if use_validation:
            train_parts = [n[:-v] for n, v in zip(normalised, val_lens)]
            # validation windows overlap the train/val boundary so the
            # split costs no usable windows
            val_parts = [
                n[-(v + window - 1) :] for n, v in zip(normalised, val_lens)
            ]
            val_offsets = [
                start_index + len(s) - len(vp)
                for s, vp in zip(series_list, val_parts)
            ]
        else:
            train_parts, val_parts, val_offsets = normalised, None, []

        dataset = WindowDataset(
            train_parts,
            self.context_length,
            self.horizon,
            stride=self.config.window_stride,
            start_offsets=[start_index] * len(train_parts),
        )
        loader = DataLoader(
            dataset, self.config.batch_size, shuffle=True, rng=rng, yield_positions=True
        )
        optimizer = Adam(self.network.parameters(), lr=self.config.learning_rate)

        metrics = get_registry()
        model = type(self).__name__
        best_val = np.inf
        best_state: dict[str, np.ndarray] | None = None
        bad_epochs = 0
        # Warm refits *append* to the training history: cumulative
        # provenance is what distinguishes an online refit from a cold
        # fit when a checkpointed model's lineage is audited.
        if not warm:
            self.history = []
        mode = "warm" if warm else "cold"
        epoch_offset = (self.history[-1]["epoch"] + 1) if self.history else 0
        max_epochs = epochs if epochs is not None else self.config.epochs
        if max_epochs < 1:
            raise ValueError("epochs must be >= 1")
        batch_seconds = metrics.histogram("forecast.batch_seconds", model=model)
        with metrics.span("forecast/fit", model=model, mode=mode):
            for epoch in range(max_epochs):
                epoch_start = time.perf_counter()
                total_loss = 0.0
                batches = 0
                for contexts, horizons, starts in loader:
                    batch_start = time.perf_counter()
                    optimizer.zero_grad()
                    total_loss += self._loss_backward(contexts, horizons, starts)
                    clip_grad_norm(self.network.parameters(), self.config.grad_clip)
                    optimizer.step()
                    batches += 1
                    batch_seconds.observe(time.perf_counter() - batch_start)
                record = {
                    "epoch": epoch_offset + epoch,
                    "train_loss": total_loss / max(batches, 1),
                    "mode": mode,
                }

                if use_validation:
                    record["val_loss"] = self._validation_loss(val_parts, val_offsets)
                    if record["val_loss"] < best_val - 1e-9:
                        best_val = record["val_loss"]
                        # Copy weights in place after the first improving
                        # epoch — no fresh deep-copy per improvement, and
                        # nothing at all on epochs that don't improve.
                        if best_state is None:
                            best_state = self.network.state_dict()
                        else:
                            for name, param in self.network.named_parameters():
                                np.copyto(best_state[name], param.data)
                        bad_epochs = 0
                    else:
                        bad_epochs += 1
                self.history.append(record)
                metrics.counter("forecast.epochs", model=model).inc()
                metrics.gauge("forecast.train_loss", model=model).set(
                    record["train_loss"]
                )
                if "val_loss" in record:
                    metrics.gauge("forecast.val_loss", model=model).set(
                        record["val_loss"]
                    )
                metrics.histogram("forecast.epoch_seconds", model=model).observe(
                    time.perf_counter() - epoch_start
                )
                if use_validation and bad_epochs >= self.config.patience:
                    break

        # Restore the best weights only if later epochs regressed past
        # them — when the final epoch *is* the best, the network already
        # holds those weights and the copy-back would be a no-op.
        if best_state is not None and bad_epochs > 0:
            self.network.load_state_dict(best_state)
        self.network.zero_grad()  # the last batch's gradients are no fitted state
        self._fitted = True
        self.fits_completed += 1
        return self

    # -- persistence -----------------------------------------------------
    def state_dict(self) -> dict:
        """Everything :meth:`fit` produced (see :class:`Forecaster`, persistence).

        Weights, scaler, ``fits_completed`` and the loss ``history`` -
        the next warm refit derives its shuffle seed and its epoch
        numbers from the last two - and, where the forecaster samples,
        the sampler's bit-generator state.  Arrays keep the network's dtype.
        """
        self._require_fitted()
        state = {
            f"network.{name}": _encode_value(param.data)
            for name, param in self.network.named_parameters()
        }
        state["scaler.mean"] = self.scaler.mean_
        state["scaler.std"] = self.scaler.std_
        state["fits_completed"] = self.fits_completed
        state["history"] = [dict(record) for record in self.history]
        if hasattr(self, "_sample_rng"):
            state["sampler"] = self._sample_rng.bit_generator.state
        return state

    def load_state_dict(self, state: dict) -> "NeuralForecaster":
        network = self.network
        if network is None:
            network = self._in_precision(self._build(np.random.default_rng(self.config.seed)))
        spec = {f"network.{name}": param.data for name, param in network.named_parameters()}
        spec.update(
            {"scaler.mean": float, "scaler.std": float, "fits_completed": int, "history": list}
        )
        if hasattr(self, "_sample_rng"):
            spec["sampler"] = dict
        fitted = _read_state(state, spec)
        if "sampler" in fitted:
            try:  # first: the one assignment that can still refuse
                self._sample_rng.bit_generator.state = fitted["sampler"]
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(f"sampler: {error!r}") from error
        for name, param in network.named_parameters():
            param.data[...] = fitted[f"network.{name}"]
        self.network = network
        self.scaler.mean_ = fitted["scaler.mean"]
        self.scaler.std_ = fitted["scaler.std"]
        self.scaler.fitted = True
        self.fits_completed = fitted["fits_completed"]
        self.history = fitted["history"]
        self._fitted = True
        return self

    def _validation_loss(
        self, val_parts: list[np.ndarray], val_offsets: list[int]
    ) -> float:
        assert self.network is not None
        dataset = WindowDataset(
            val_parts,
            self.context_length,
            self.horizon,
            stride=1,
            start_offsets=val_offsets,
        )
        loader = DataLoader(
            dataset, self.config.batch_size, shuffle=False, yield_positions=True
        )
        total, batches = 0.0, 0
        for contexts, horizons, starts in loader:
            total += self._forward_loss(contexts, horizons, starts)[0]
            batches += 1
        return total / max(batches, 1)
