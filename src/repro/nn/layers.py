"""Dense and utility layers."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, grad_enabled
from repro.nn.parameter import Parameter
from repro.utils.rng import SeedLike, new_rng


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``.

    Accepts input of shape ``(N, in_features)`` or ``(N, T, in_features)``;
    the trailing dimension is transformed and the leading ones are preserved.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = new_rng(rng)
        self.weight = Parameter(
            init.kaiming_normal((out_features, in_features), fan_in=in_features, rng=rng),
            name="weight",
        )
        self.use_bias = bool(bias)
        if self.use_bias:
            self.bias = Parameter(init.zeros((out_features,)), name="bias")

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._grads = self._grad_params()
        self._input_shape = x.shape
        x2 = x.reshape(-1, self.in_features)
        # the weight gradient's operand, kept only when backward computes it
        self._x2 = x2 if "weight" in (self._grads or ()) else None
        out = x2 @ self.weight.data.T
        if self.use_bias:
            out = out + self.bias.data
        return out.reshape(*self._input_shape[:-1], self.out_features)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grads = self._saved(getattr(self, "_grads", None))
        grad2 = grad_output.reshape(-1, self.out_features)
        if "weight" in grads:
            self.weight.accumulate_grad(grad2.T @ self._x2)
        if "bias" in grads:
            self.bias.accumulate_grad(grad2.sum(axis=0))
        grad_input = grad2 @ self.weight.data
        return grad_input.reshape(self._input_shape)


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape if grad_enabled() else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._saved(self._input_shape))


class Dropout(Module):
    """Inverted dropout (identity in eval mode)."""

    def __init__(self, p: float = 0.5, rng: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = new_rng(rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            mask = None
        else:
            keep = 1.0 - self.p
            mask = (self._rng.random(x.shape) < keep) / keep
        # a one-tuple, so an identity forward (mask None) still differs from
        # a no_grad() forward that kept nothing
        self._state = (mask,) if grad_enabled() else None
        return x if mask is None else x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        (mask,) = self._saved(self._state)
        if mask is None:
            return grad_output
        return grad_output * mask
