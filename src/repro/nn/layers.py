"""Feed-forward building blocks: Linear, Dropout, LayerNorm, Embedding,
Sequential, and the Gated Residual Network used by the Temporal Fusion
Transformer.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import fastpath, init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Dropout",
    "LayerNorm",
    "Embedding",
    "Sequential",
    "GatedLinearUnit",
    "GatedResidualNetwork",
]


class Linear(Module):
    """Affine map ``y = x @ W + b`` with weight shape (in, out).

    With gradients disabled ``layer(x)`` runs :meth:`fast_forward` (see
    :meth:`Module.__call__`); the result is numerically identical.
    """

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

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def fast_forward(
        self, x: np.ndarray, dtype: "np.dtype | type | None" = None
    ) -> np.ndarray:
        """Tape-free forward on a raw ndarray."""
        return fastpath.linear(self, x, dtype)


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

    def forward(self, x: Tensor) -> Tensor:
        mask = self.mask(x.shape)
        return x if mask is None else x * Tensor(mask)


class LayerNorm(Module):
    """Layer normalization over the last axis.

    :meth:`fast_forward` is the :func:`repro.nn.fastpath.layer_norm`
    kernel; results are bitwise identical in float64.
    """

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(init.ones((normalized_shape,)))
        self.beta = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) * (x - mu)).mean(axis=-1, keepdims=True)
        normed = (x - mu) / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta

    def fast_forward(
        self, x: np.ndarray, dtype: "np.dtype | type | None" = None
    ) -> np.ndarray:
        """Tape-free forward on a raw ndarray."""
        return fastpath.layer_norm(self, x, dtype)[0]


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.min() < 0 or ids.max() >= self.num_embeddings:
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()} max={ids.max()}"
            )
        return self.weight[ids]


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers: list[Module] = []
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)
            self._layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


class GatedLinearUnit(Module):
    """GLU(x) = sigmoid(W1 x + b1) * (W2 x + b2) — TFT's gating primitive.

    :meth:`fast_forward` is the fused :func:`repro.nn.fastpath.glu_forward`
    kernel (bitwise-identical in float64).
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.gate = Linear(in_features, out_features, rng)
        self.value = Linear(in_features, out_features, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.gate(x).sigmoid() * self.value(x)

    def fast_forward(
        self, x: np.ndarray, dtype: "np.dtype | type | None" = None
    ) -> np.ndarray:
        """Tape-free forward on a raw ndarray."""
        return fastpath.glu_forward(self, x, dtype)[0]


class GatedResidualNetwork(Module):
    """TFT's Gated Residual Network (Lim et al., 2019, Eq. 2-4).

    GRN(a) = LayerNorm(a' + GLU(eta1)) where
    eta2 = ELU-ish(W2 a), eta1 = W1 eta2, and a' is a (possibly projected)
    residual of the input.  We use tanh in place of ELU; at the scale of
    workload forecasting models the difference is immaterial and tanh is
    cheap under autograd.
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

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.fc2(self.fc1(x).tanh())
        hidden = self.dropout(hidden)
        gated = self.glu(hidden)
        residual = self.skip(x) if self.skip is not None else x
        return self.norm(residual + gated)

    def fast_forward(
        self, x: np.ndarray, dtype: "np.dtype | type | None" = None
    ) -> np.ndarray:
        """Tape-free forward on a raw ndarray."""
        return fastpath.grn_forward(self, x, dtype)[0]
