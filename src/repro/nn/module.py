"""Module/Parameter containers for the neural substrate.

Mirrors the familiar torch-style API surface (``parameters()``,
``state_dict()``, ``train()``/``eval()``) so the forecasting models read
naturally, while staying a few hundred lines of plain Python.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = ["Parameter", "Module"]


def _to_arrays(value: object) -> object:
    """Unwrap Tensors (also inside per-layer state lists/tuples) to ndarrays."""
    if isinstance(value, Tensor):
        return value.data
    if isinstance(value, (list, tuple)):
        return type(value)([_to_arrays(item) for item in value])
    return value


def _to_tensors(value: object) -> object:
    """Wrap ndarrays (also inside lists/tuples) as constant Tensors."""
    if isinstance(value, np.ndarray):
        return Tensor(value)
    if isinstance(value, (list, tuple)):
        return type(value)([_to_tensors(item) for item in value])
    return value


class Parameter(Tensor):
    """A tensor registered as a trainable weight of a :class:`Module`."""

    def __init__(self, data: object) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic via ``__setattr__``.  The
    ``training`` flag lets layers such as dropout switch behaviour.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters, depth-first."""
        for param in self._parameters.values():
            yield param
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (dotted-name, parameter) pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules, depth-first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar weights."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout etc.)."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={missing} unexpected={unexpected}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data[...] = value

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args: object, **kwargs: object) -> object:
        raise NotImplementedError

    #: Layers with a raw-array kernel define ``fast_forward`` with the
    #: signature of ``forward`` on ndarrays (see :mod:`repro.nn.fastpath`).
    fast_forward = None

    def __call__(self, *args: object, **kwargs: object) -> object:
        """Run the layer: the tape ``forward`` while gradients are recorded.

        With gradients disabled, a class that defines ``fast_forward``
        (the same signature on raw ndarrays, see :mod:`repro.nn.fastpath`)
        runs that instead — bitwise the same float64 values without the
        per-op Tensor overhead — and the result is wrapped back into
        constant Tensors so callers never see the difference.
        """
        if is_grad_enabled() or self.fast_forward is None:
            return self.forward(*args, **kwargs)
        kwargs = {name: _to_arrays(value) for name, value in kwargs.items()}
        return _to_tensors(self.fast_forward(*_to_arrays(args), **kwargs))
