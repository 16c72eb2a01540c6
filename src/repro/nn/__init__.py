"""A small, self-contained neural-network framework on top of numpy.

The framework follows an explicit forward/backward layer design (no tape-based
autograd): every :class:`~repro.nn.module.Module` keeps during ``forward``
exactly what its ``backward`` will read, and ``backward`` produces the input
gradient plus the gradients of the parameters that were trainable at forward
time.  Under :func:`no_grad` a forward keeps nothing (inference), and a frozen
parameter (``requires_grad`` off) costs its layer neither the operand of its
gradient nor the gradient itself; outputs and input gradients are the same
bytes either way.  This keeps the implementation transparent, easy to test with
numerical gradient checks, and fast enough on a single CPU core for the small
architectures used throughout the reproduction.

Public surface
--------------
* :class:`Parameter`, :class:`Module`, :class:`Sequential`
* Grad mode: :func:`no_grad`, :func:`grad_enabled`
* Layers: :class:`Linear`, :class:`Conv2d`, :class:`BatchNorm1d`,
  :class:`BatchNorm2d`, :class:`LayerNorm`, :class:`Dropout`, :class:`Flatten`,
  :class:`MaxPool2d`, :class:`AvgPool2d`, :class:`GlobalAvgPool2d`,
  :class:`MultiHeadSelfAttention`, :class:`PatchEmbedding`
* Activations: :class:`ReLU`, :class:`LeakyReLU`, :class:`GELU`,
  :class:`Sigmoid`, :class:`Tanh`, :class:`Identity`
* Losses: :class:`CrossEntropyLoss`, :class:`MSELoss`
* Optimisers: :class:`SGD`, :class:`Adam`, :class:`StepLR`, :class:`CosineLR`
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module, Sequential, grad_enabled, no_grad
from repro.nn.activations import GELU, Identity, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.layers import Dropout, Flatten, Linear
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm1d, BatchNorm2d, LayerNorm
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.attention import MultiHeadSelfAttention, PatchEmbedding
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.optim import SGD, Adam, CosineLR, StepLR
from repro.nn import functional
from repro.nn import init
from repro.nn.serialization import load_state_dict, save_state_dict

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "grad_enabled",
    "no_grad",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "Dropout",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "MultiHeadSelfAttention",
    "PatchEmbedding",
    "ReLU",
    "LeakyReLU",
    "GELU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "CrossEntropyLoss",
    "MSELoss",
    "SGD",
    "Adam",
    "StepLR",
    "CosineLR",
    "functional",
    "init",
    "save_state_dict",
    "load_state_dict",
]
