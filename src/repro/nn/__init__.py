"""Neural-network substrate: raw-array layers, analytic gradients, Adam, data.

This package replaces the role GluonTS/mxnet play in the paper's
implementation — it is the training and inference engine underneath the
probabilistic forecasters in :mod:`repro.forecast`.  Every layer has one
forward on plain ndarrays (:mod:`~repro.nn.fastpath`) and a closed-form
backward (:mod:`~repro.nn.fastgrad`); the autograd tape those are checked
against lives in ``tests/nn/``.
"""

from . import fastgrad, fastpath
from .attention import InterpretableMultiHeadAttention, causal_mask
from .data import DataLoader, WindowDataset
from .layers import GatedLinearUnit, GatedResidualNetwork, LayerNorm, Linear
from .module import Module
from .optim import Adam, clip_grad_norm
from .rnn import LSTM

__all__ = [
    "fastpath",
    "fastgrad",
    "Module",
    "Linear",
    "LayerNorm",
    "GatedLinearUnit",
    "GatedResidualNetwork",
    "LSTM",
    "InterpretableMultiHeadAttention",
    "causal_mask",
    "Adam",
    "clip_grad_norm",
    "WindowDataset",
    "DataLoader",
]
