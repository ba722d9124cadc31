"""Feed-forward building blocks: Linear, Dropout, LayerNorm, and the
Gated Linear Unit / Gated Residual Network used by the Temporal Fusion
Transformer.

Each layer holds its weights and exposes one forward, ``fast_forward``,
on raw ndarrays (the :mod:`repro.nn.fastpath` kernel of that layer).
"""

from __future__ import annotations

import numpy as np

from . import fastgrad, fastpath, init
from .module import Module, Parameter

__all__ = [
    "Linear",
    "Dropout",
    "LayerNorm",
    "GatedLinearUnit",
    "GatedResidualNetwork",
]


class Linear(Module):
    """Affine map ``y = x @ W + b`` with weight shape (in, out)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def fast_forward(self, x: np.ndarray) -> np.ndarray:
        """Forward on a raw ndarray."""
        return fastpath.linear(self, x)

    def backward(
        self, x: np.ndarray, dout: np.ndarray, need_dx: bool = True
    ) -> np.ndarray | None:
        """Backward of :meth:`fast_forward` at input ``x``: adds the weight
        and bias gradients into ``.grad``, returns ``dx`` if ``need_dx``."""
        dx, dw, db = fastgrad.linear_backward(x, self.weight.data, dout, need_dx)
        fastgrad.accumulate_grad(self.weight, dw)
        if self.bias is not None:
            fastgrad.accumulate_grad(self.bias, db)
        return dx


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    The mask generator is owned by the layer so training runs are
    reproducible given the layer's seed.
    """

    def __init__(self, p: float, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def mask(self, shape: tuple[int, ...]) -> np.ndarray | None:
        """Draw one inverted-dropout mask; ``None`` when dropout is inactive."""
        if not self.training or self.p == 0.0:
            return None
        keep = 1.0 - self.p
        return self._rng.binomial(1, keep, size=shape) / keep


class LayerNorm(Module):
    """Layer normalization over the last axis.

    :meth:`fast_forward` is the :func:`repro.nn.fastpath.layer_norm`
    kernel.
    """

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(init.ones((normalized_shape,)))
        self.beta = Parameter(init.zeros((normalized_shape,)))

    def fast_forward(self, x: np.ndarray) -> np.ndarray:
        """Forward on a raw ndarray."""
        return fastpath.layer_norm(self, x)[0]


class GatedLinearUnit(Module):
    """GLU(x) = sigmoid(W1 x + b1) * (W2 x + b2) — TFT's gating primitive.

    :meth:`fast_forward` is the fused :func:`repro.nn.fastpath.glu_forward`
    kernel.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.gate = Linear(in_features, out_features, rng)
        self.value = Linear(in_features, out_features, rng)

    def fast_forward(self, x: np.ndarray) -> np.ndarray:
        """Forward on a raw ndarray."""
        return fastpath.glu_forward(self, x)[0]


class GatedResidualNetwork(Module):
    """TFT's Gated Residual Network (Lim et al., 2019, Eq. 2-4).

    GRN(a) = LayerNorm(a' + GLU(eta1)) where
    eta2 = ELU-ish(W2 a), eta1 = W1 eta2, and a' is a (possibly projected)
    residual of the input.  We use tanh in place of ELU; at the scale of
    workload forecasting models the difference is immaterial.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.fc1 = Linear(in_features, hidden_features, rng)
        self.fc2 = Linear(hidden_features, hidden_features, rng)
        self.glu = GatedLinearUnit(hidden_features, out_features, rng)
        self.norm = LayerNorm(out_features)
        self.dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**32)))
        if in_features != out_features:
            self.skip: Linear | None = Linear(in_features, out_features, rng, bias=False)
        else:
            self.skip = None

    def fast_forward(self, x: np.ndarray) -> np.ndarray:
        """Forward on a raw ndarray."""
        return fastpath.grn_forward(self, x)[0]
