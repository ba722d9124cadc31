"""Recurrent layers: LSTM cell parameters and the multi-step LSTM.

DeepAR, QB5000's neural component, and the TFT encoder/decoder all run on
this LSTM.  Parameters hold the four gates side by side (``(F, 4H)``);
the kernels in :mod:`repro.nn.fastpath` run on per-call copies with one
contiguous block per gate.  On the small hidden sizes used for workload
forecasting this trains in seconds.
"""

from __future__ import annotations

import numpy as np

from . import fastgrad, fastpath, init
from .module import Module, Parameter

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """One LSTM layer's gate weights, the four gates side by side.

    Gate layout along the output axis is ``[input, forget, cell, output]``;
    the raw kernels run on :func:`fastpath.prepare_lstm_params` copies
    (gates first, ``[i, f, o, g]``, sigmoid blocks halved).
    The forget-gate bias is initialised to 1, the standard trick to keep
    long-range gradients alive early in training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform((input_size, 4 * hidden_size), rng))
        self.w_hh = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)], axis=1
            )
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias)


class LSTM(Module):
    """Multi-layer LSTM unrolled over a full sequence.

    Input shape is (batch, time, features); output is the top layer's
    hidden sequence of shape (batch, time, hidden_size) plus the final
    (h, c) state per layer.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        num_layers: int = 1,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self._cells: list[LSTMCell] = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            setattr(self, f"cell{layer}", cell)
            self._cells.append(cell)

    def _layer_params(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-layer (w_ih, w_hh, bias) raw arrays, standard layout, for the kernels."""
        return [(c.w_ih.data, c.w_hh.data, c.bias.data) for c in self._cells]

    def fast_forward(
        self,
        x: np.ndarray,
        state: list[tuple[np.ndarray, np.ndarray]] | None = None,
        cache: "list[fastpath.LSTMLayerCache] | None" = None,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Unroll over a full sequence on raw arrays (:func:`fastpath.lstm_forward`).

        Runs in the dtype of the weights.  A ``cache`` list receives the
        per-layer activations :func:`repro.nn.fastgrad.lstm_backward` needs.
        """
        return fastpath.lstm_forward(
            x, self._layer_params(), self.hidden_size, state, cache=cache
        )

    def fast_step(
        self,
        x: np.ndarray,
        state: list[tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Advance one timestep on raw arrays; returns (top hidden, state)."""
        return fastpath.lstm_step(x, self._layer_params(), self.hidden_size, state)

    def accumulate_grads(
        self, grads: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> None:
        """Add :func:`fastgrad.lstm_backward`'s per-layer ``(dW_ih, dW_hh, db)``
        into the cells' ``.grad`` buffers."""
        for cell, (dw_ih, dw_hh, db) in zip(self._cells, grads):
            fastgrad.accumulate_grad(cell.w_ih, dw_ih)
            fastgrad.accumulate_grad(cell.w_hh, dw_hh)
            fastgrad.accumulate_grad(cell.bias, db)
