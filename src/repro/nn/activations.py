"""Element-wise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, grad_enabled


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if grad_enabled() else None
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._saved(self._mask)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if grad_enabled() else None
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = self._saved(self._mask)
        return np.where(mask, grad_output, self.negative_slope * grad_output)


class GELU(Module):
    """Gaussian error linear unit (tanh approximation)."""

    # Python float, not np.float64 scalar: a 0-d float64 would promote
    # float32 activations to float64 under NumPy 2 promotion rules
    _C = float(np.sqrt(2.0 / np.pi))

    def forward(self, x: np.ndarray) -> np.ndarray:
        tanh = np.tanh(self._C * (x + 0.044715 * x**3))
        self._x, self._tanh = (x, tanh) if grad_enabled() else (None, None)
        return 0.5 * x * (1.0 + tanh)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._saved(self._x)
        sech2 = 1.0 - self._tanh**2
        d_inner = self._C * (1.0 + 3 * 0.044715 * x**2)
        grad = 0.5 * (1.0 + self._tanh) + 0.5 * x * sech2 * d_inner
        return grad_output * grad


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        # follow the forward dtype (float32 batches stay float32); integer
        # inputs still promote to float64 so the division below is exact
        dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
        out = np.empty_like(x, dtype=dtype)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        expx = np.exp(x[~pos])
        out[~pos] = expx / (1.0 + expx)
        self._out = out if grad_enabled() else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        out = self._saved(self._out)
        return grad_output * out * (1.0 - out)


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._out = out if grad_enabled() else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._saved(self._out) ** 2)


class Identity(Module):
    """No-op layer, useful as an optional-stage placeholder."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output
