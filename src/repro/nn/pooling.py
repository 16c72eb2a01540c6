"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, im2col
from repro.nn.module import Module, grad_enabled


class MaxPool2d(Module):
    """Max pooling with square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        self._input_shape = x.shape
        self._dtype = x.dtype
        # pool each channel independently by treating channels as batch items
        x_reshaped = x.reshape(n * c, 1, h, w)
        cols, out_h, out_w = im2col(x_reshaped, self.kernel_size, self.stride, padding=0)
        self._cols_shape = cols.shape
        argmax = np.argmax(cols, axis=1)
        self._argmax = argmax if grad_enabled() else None
        out = cols[np.arange(cols.shape[0]), argmax]
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        argmax = self._saved(self._argmax)
        n, c, h, w = self._input_shape
        grad_cols = np.zeros(self._cols_shape, dtype=self._dtype)
        grad_flat = grad_output.reshape(-1)
        grad_cols[np.arange(grad_cols.shape[0]), argmax] = grad_flat
        grad_input = col2im(
            grad_cols, (n * c, 1, h, w), self.kernel_size, self.stride, padding=0
        )
        return grad_input.reshape(n, c, h, w)


class AvgPool2d(Module):
    """Average pooling with square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        self._input_shape = x.shape if grad_enabled() else None
        self._dtype = x.dtype
        x_reshaped = x.reshape(n * c, 1, h, w)
        cols, out_h, out_w = im2col(x_reshaped, self.kernel_size, self.stride, padding=0)
        out = cols.mean(axis=1, dtype=self._dtype)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, c, h, w = self._saved(self._input_shape)
        window = self.kernel_size * self.kernel_size
        grad_flat = np.asarray(grad_output, dtype=self._dtype).reshape(-1, 1) / window
        grad_cols = np.repeat(grad_flat, window, axis=1)
        grad_input = col2im(
            grad_cols, (n * c, 1, h, w), self.kernel_size, self.stride, padding=0
        )
        return grad_input.reshape(n, c, h, w)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, producing (N, C)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape if grad_enabled() else None
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, c, h, w = self._saved(self._input_shape)
        grad = grad_output[:, :, None, None] / (h * w)
        return np.broadcast_to(grad, self._input_shape).copy()
