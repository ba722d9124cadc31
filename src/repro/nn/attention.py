"""Attention primitives used by the Temporal Fusion Transformer.

Implements TFT's *interpretable* multi-head attention, in which the
value projection (and the attention pattern's output head) is shared
across heads so the averaged attention weights remain interpretable
(Lim et al., 2019, Sec. 4.4), and the causal mask it runs under.
"""

from __future__ import annotations

import numpy as np

from . import fastpath
from .layers import Linear
from .module import Module

__all__ = ["causal_mask", "InterpretableMultiHeadAttention"]

_MASK_CACHE: dict[tuple[int, int], np.ndarray] = {}


def causal_mask(query_len: int, key_len: int) -> np.ndarray:
    """Additive mask forbidding attention to future positions.

    Position ``i`` of the query may attend to key positions ``j`` with
    ``j <= i + (key_len - query_len)`` — i.e. the decoder can see the whole
    encoder plus its own past.

    Built with one vectorized triu-style comparison and cached per
    ``(query_len, key_len)``: every TFT forward at a given geometry asks
    for the same mask, so repeated predict/train calls stop reallocating
    it.  The cached array is marked read-only; callers only ever add it
    to score arrays.
    """
    cached = _MASK_CACHE.get((query_len, key_len))
    if cached is None:
        offset = key_len - query_len
        future = np.arange(key_len)[None, :] > np.arange(query_len)[:, None] + offset
        cached = np.where(future, -1e9, 0.0)
        cached.setflags(write=False)
        _MASK_CACHE[(query_len, key_len)] = cached
    return cached


class InterpretableMultiHeadAttention(Module):
    """Multi-head attention with a value projection shared across heads.

    Each head gets its own query/key projections; all heads share one value
    projection and their outputs are averaged before the final linear map.
    This is the exact structure of TFT's temporal self-attention layer.
    """

    def __init__(self, d_model: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self._q_projs: list[Linear] = []
        self._k_projs: list[Linear] = []
        for head in range(num_heads):
            q_proj = Linear(d_model, self.d_head, rng)
            k_proj = Linear(d_model, self.d_head, rng)
            setattr(self, f"q{head}", q_proj)
            setattr(self, f"k{head}", k_proj)
            self._q_projs.append(q_proj)
            self._k_projs.append(k_proj)
        self.v_proj = Linear(d_model, self.d_head, rng)
        self.out_proj = Linear(self.d_head, d_model, rng)

    def fast_forward(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forward on raw ndarrays (:func:`repro.nn.fastpath.interpretable_attention`).

        Returns (output (B, Tq, d_model), mean attention (B, Tq, Tk)).
        """
        out, weights, _ = fastpath.interpretable_attention(self, query, key, value, mask=mask)
        return out, weights
