"""Recurrent layers: LSTM cell and multi-step LSTM.

DeepAR, QB5000's neural component, and the TFT encoder/decoder all run on
this LSTM.  The implementation fuses the four gates into a single matmul
per step, which is the dominant cost; on the small hidden sizes used for
workload forecasting this trains in seconds.
"""

from __future__ import annotations

import numpy as np

from . import fastpath, init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """Single LSTM step with fused gate weights.

    Gate layout along the output axis is ``[input, forget, cell, output]``
    (the raw kernels run on :func:`fastpath.prepare_lstm_params` copies).
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

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        """Advance one step.

        Parameters
        ----------
        x:
            Input of shape (batch, input_size).
        state:
            Tuple (h, c) each of shape (batch, hidden_size).
        """
        h_prev, c_prev = state
        gates = x @ self.w_ih + h_prev @ self.w_hh + self.bias
        hs = self.hidden_size
        i_gate = gates[:, :hs].sigmoid()
        f_gate = gates[:, hs : 2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs : 3 * hs].tanh()
        o_gate = gates[:, 3 * hs :].sigmoid()
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def fast_forward(
        self, x: np.ndarray, state: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tape-free step on raw arrays; numerically identical to forward."""
        _, (new_state,) = fastpath.lstm_step(
            x, [(self.w_ih.data, self.w_hh.data, self.bias.data)], self.hidden_size, [state]
        )
        return new_state

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        """Zero hidden and cell states for a batch."""
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


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

    def forward(
        self,
        x: Tensor,
        state: list[tuple[Tensor, Tensor]] | None = None,
    ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        batch, steps, _ = x.shape
        if state is None:
            state = [cell.initial_state(batch) for cell in self._cells]
        else:
            state = list(state)

        layer_input = [x[:, t, :] for t in range(steps)]
        for layer, cell in enumerate(self._cells):
            h, c = state[layer]
            outputs = []
            for step_input in layer_input:
                h, c = cell(step_input, (h, c))
                outputs.append(h)
            state[layer] = (h, c)
            layer_input = outputs

        sequence = Tensor.stack(layer_input, axis=1)
        return sequence, state

    def _layer_params(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-layer (w_ih, w_hh, bias) raw arrays for the fused kernels."""
        return [(c.w_ih.data, c.w_hh.data, c.bias.data) for c in self._cells]

    def fast_forward(
        self,
        x: np.ndarray,
        state: list[tuple[np.ndarray, np.ndarray]] | None = None,
        dtype: "np.dtype | type | None" = None,
        cache: "list[fastpath.LSTMLayerCache] | None" = None,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Fused tape-free unroll on raw arrays.

        Keeps (h, c) as plain ndarrays and writes each step's hidden
        state into a preallocated buffer instead of building the
        per-timestep Tensor lists the tape path needs.  ``dtype=None``
        computes in float64; ``np.float32`` runs the whole scan in
        single precision.  A ``cache`` list receives the per-layer
        activations :func:`repro.nn.fastgrad.lstm_backward` needs.
        """
        return fastpath.lstm_forward(
            x, self._layer_params(), self.hidden_size, state, dtype=dtype, cache=cache
        )

    def fast_step(
        self,
        x: np.ndarray,
        state: list[tuple[np.ndarray, np.ndarray]],
        dtype: "np.dtype | type | None" = None,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Advance one timestep on raw arrays; returns (top hidden, state)."""
        return fastpath.lstm_step(
            x, self._layer_params(), self.hidden_size, state, dtype=dtype
        )

    def initial_state(self, batch_size: int) -> list[tuple[Tensor, Tensor]]:
        """Zero states for every layer."""
        return [cell.initial_state(batch_size) for cell in self._cells]
