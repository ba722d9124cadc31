"""Neural-network substrate: numpy autograd, layers, optimizers, data.

This package replaces the role GluonTS/mxnet play in the paper's
implementation — it is the training and inference engine underneath the
probabilistic forecasters in :mod:`repro.forecast`.
"""

from . import fastgrad, fastpath, functional, init
from .attention import InterpretableMultiHeadAttention, causal_mask, scaled_dot_product_attention
from .data import DataLoader, WindowDataset, train_validation_split
from .layers import (
    Dropout,
    Embedding,
    GatedLinearUnit,
    GatedResidualNetwork,
    LayerNorm,
    Linear,
    Sequential,
)
from .module import Module, Parameter
from .optim import SGD, Adam, CosineLR, StepLR, clip_grad_norm
from .rnn import LSTM, LSTMCell
from .serialization import load_module, load_state, save_module, save_state
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "fastpath",
    "fastgrad",
    "Module",
    "Parameter",
    "Linear",
    "Dropout",
    "LayerNorm",
    "Embedding",
    "Sequential",
    "GatedLinearUnit",
    "GatedResidualNetwork",
    "LSTM",
    "LSTMCell",
    "InterpretableMultiHeadAttention",
    "scaled_dot_product_attention",
    "causal_mask",
    "SGD",
    "Adam",
    "StepLR",
    "CosineLR",
    "clip_grad_norm",
    "WindowDataset",
    "DataLoader",
    "train_validation_split",
    "save_state",
    "load_state",
    "save_module",
    "load_module",
    "functional",
    "init",
]
