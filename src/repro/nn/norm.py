"""Normalisation layers: BatchNorm (1d/2d) and LayerNorm."""

from __future__ import annotations

import math

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class _BatchNormBase(Module):
    """Shared implementation for BatchNorm1d / BatchNorm2d.

    Subclasses define how to collapse the input into a (rows, features)
    matrix and how to expand it back.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(init.ones((num_features,)), name="gamma")
        self.beta = Parameter(init.zeros((num_features,)), name="beta")
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    # subclasses implement these two
    def _to_2d(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _from_2d(self, x2: np.ndarray, shape) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        x2 = self._to_2d(x)
        if self.training:
            mean = x2.mean(axis=0)
            var = x2.var(axis=0)
            n = x2.shape[0]
            unbiased = var * n / max(n - 1, 1)
            self.set_buffer(
                "running_mean",
                (1 - self.momentum) * self.get_buffer("running_mean") + self.momentum * mean,
            )
            self.set_buffer(
                "running_var",
                (1 - self.momentum) * self.get_buffer("running_var") + self.momentum * unbiased,
            )
        else:
            mean = self.get_buffer("running_mean")
            var = self.get_buffer("running_var")
        std_inv = 1.0 / np.sqrt(var + self.eps)
        # the element-wise steps run on per-sample rows against per-channel
        # vectors tiled to the row length: BatchNorm2d's (N*H*W, C) matrix
        # would broadcast in inner loops only C long.  Every element still
        # sees ((x - mean) * std_inv) * gamma + beta in that order, so the
        # bytes match the (rows, C) broadcast form exactly.
        reps = math.prod(x.shape[2:])
        rows = x2.reshape(x.shape[0], reps * x2.shape[1])
        x_hat = rows - np.tile(mean, reps)
        x_hat *= np.tile(std_inv, reps)
        grads = self._grad_params()
        # backward reads x_hat for the batch-statistics input gradient and
        # for gamma's; with neither to compute, the same × gamma and + beta
        # steps run in place on its one buffer
        if grads is not None and (self.training or "gamma" in grads):
            out = x_hat * np.tile(self.gamma.data, reps)
            self._x_hat = x_hat.reshape(x2.shape)
        else:
            out = x_hat
            out *= np.tile(self.gamma.data, reps)
            self._x_hat = None
        out += np.tile(self.beta.data, reps)
        self._grads = grads
        self._std_inv = None if grads is None else std_inv
        self._shape = x.shape
        return self._from_2d(out.reshape(x2.shape), x.shape)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grads = self._saved(getattr(self, "_grads", None))
        g2 = self._to_2d(grad_output)
        n = g2.shape[0]
        if "gamma" in grads:
            self.gamma.accumulate_grad(np.sum(g2 * self._x_hat, axis=0))
        if "beta" in grads:
            self.beta.accumulate_grad(np.sum(g2, axis=0))
        if self.training:
            dx_hat = g2 * self.gamma.data
            grad2 = (
                self._std_inv
                / n
                * (
                    n * dx_hat
                    - np.sum(dx_hat, axis=0)
                    - self._x_hat * np.sum(dx_hat * self._x_hat, axis=0)
                )
            )
        else:
            grad2 = g2 * self.gamma.data * self._std_inv
        return self._from_2d(grad2, self._shape)


class BatchNorm1d(_BatchNormBase):
    """Batch normalisation over (N, F) inputs."""

    def _to_2d(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, F) input, got shape {x.shape}")
        return x

    def _from_2d(self, x2: np.ndarray, shape) -> np.ndarray:
        return x2


class BatchNorm2d(_BatchNormBase):
    """Batch normalisation over (N, C, H, W) inputs, normalising per channel."""

    def _to_2d(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W) input, got shape {x.shape}")
        n, c, h, w = x.shape
        return x.transpose(0, 2, 3, 1).reshape(n * h * w, c)

    def _from_2d(self, x2: np.ndarray, shape) -> np.ndarray:
        n, c, h, w = shape
        return x2.reshape(n, h, w, c).transpose(0, 3, 1, 2)


class LayerNorm(Module):
    """Layer normalisation over the trailing feature dimension."""

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.gamma = Parameter(init.ones((num_features,)), name="gamma")
        self.beta = Parameter(init.zeros((num_features,)), name="beta")

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        std_inv = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * std_inv
        self._grads = self._grad_params()
        # the input gradient reads both, whether or not gamma is frozen
        self._std_inv, self._x_hat = (None, None) if self._grads is None else (std_inv, x_hat)
        return self.gamma.data * x_hat + self.beta.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grads = self._saved(getattr(self, "_grads", None))
        axes = tuple(range(grad_output.ndim - 1))
        if "gamma" in grads:
            self.gamma.accumulate_grad(np.sum(grad_output * self._x_hat, axis=axes))
        if "beta" in grads:
            self.beta.accumulate_grad(np.sum(grad_output, axis=axes))
        d = self.num_features
        dx_hat = grad_output * self.gamma.data
        grad = (
            self._std_inv
            / d
            * (
                d * dx_hat
                - np.sum(dx_hat, axis=-1, keepdims=True)
                - self._x_hat * np.sum(dx_hat * self._x_hat, axis=-1, keepdims=True)
            )
        )
        return grad
