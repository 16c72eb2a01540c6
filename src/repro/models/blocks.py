"""Composite building blocks: residual, inverted-residual and transformer blocks."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.module import Module
from repro.utils.rng import SeedLike, spawn_rngs


class ResidualBlock(Module):
    """Basic ResNet block: two 3x3 conv/BN pairs with an identity or 1x1 shortcut."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(rng, 3)
        self.conv1 = nn.Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rngs[0]
        )
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.relu1 = nn.ReLU()
        self.conv2 = nn.Conv2d(
            out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rngs[1]
        )
        self.bn2 = nn.BatchNorm2d(out_channels)
        self.relu2 = nn.ReLU()
        self.has_projection = stride != 1 or in_channels != out_channels
        if self.has_projection:
            self.proj_conv = nn.Conv2d(
                in_channels, out_channels, 1, stride=stride, bias=False, rng=rngs[2]
            )
            self.proj_bn = nn.BatchNorm2d(out_channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        shortcut = self.proj_bn(self.proj_conv(x)) if self.has_projection else x
        return self.relu2(out + shortcut)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_sum = self.relu2.backward(grad_output)
        # main branch
        grad = self.bn2.backward(grad_sum)
        grad = self.conv2.backward(grad)
        grad = self.relu1.backward(grad)
        grad = self.bn1.backward(grad)
        grad_input = self.conv1.backward(grad)
        # shortcut branch
        if self.has_projection:
            grad_short = self.proj_bn.backward(grad_sum)
            grad_input = grad_input + self.proj_conv.backward(grad_short)
        else:
            grad_input = grad_input + grad_sum
        return grad_input


class InvertedResidualBlock(Module):
    """MobileNetV2-style block: 1x1 expand, 3x3 depthwise, 1x1 linear projection."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        expansion: int = 2,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(rng, 3)
        hidden = in_channels * expansion
        self.expand = nn.Conv2d(in_channels, hidden, 1, bias=False, rng=rngs[0])
        self.expand_bn = nn.BatchNorm2d(hidden)
        self.expand_relu = nn.ReLU()
        self.depthwise = nn.Conv2d(
            hidden, hidden, 3, stride=stride, padding=1, groups=hidden, bias=False,
            rng=rngs[1],
        )
        self.depthwise_bn = nn.BatchNorm2d(hidden)
        self.depthwise_relu = nn.ReLU()
        self.project = nn.Conv2d(hidden, out_channels, 1, bias=False, rng=rngs[2])
        self.project_bn = nn.BatchNorm2d(out_channels)
        self.use_residual = stride == 1 and in_channels == out_channels

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.expand_relu(self.expand_bn(self.expand(x)))
        out = self.depthwise_relu(self.depthwise_bn(self.depthwise(out)))
        out = self.project_bn(self.project(out))
        if self.use_residual:
            return out + x
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.project_bn.backward(grad_output)
        grad = self.project.backward(grad)
        grad = self.depthwise_relu.backward(grad)
        grad = self.depthwise_bn.backward(grad)
        grad = self.depthwise.backward(grad)
        grad = self.expand_relu.backward(grad)
        grad = self.expand_bn.backward(grad)
        grad_input = self.expand.backward(grad)
        if self.use_residual:
            grad_input = grad_input + grad_output
        return grad_input


class _TokenMLP(Module):
    """Two-layer MLP applied per token inside a transformer block."""

    def __init__(self, dim: int, hidden_dim: int, rng: SeedLike = None) -> None:
        super().__init__()
        rngs = spawn_rngs(rng, 2)
        self.fc1 = nn.Linear(dim, hidden_dim, rng=rngs[0])
        self.act = nn.GELU()
        self.fc2 = nn.Linear(hidden_dim, dim, rng=rngs[1])

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.fc2(self.act(self.fc1(x)))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.fc1.backward(self.act.backward(self.fc2.backward(grad_output)))


class TransformerBlock(Module):
    """Pre-norm transformer encoder block (LayerNorm -> MHSA -> MLP, with residuals)."""

    def __init__(
        self, dim: int, num_heads: int, mlp_ratio: float = 2.0, rng: SeedLike = None
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(rng, 2)
        self.norm1 = nn.LayerNorm(dim)
        self.attention = nn.MultiHeadSelfAttention(dim, num_heads, rng=rngs[0])
        self.norm2 = nn.LayerNorm(dim)
        self.mlp = _TokenMLP(dim, int(dim * mlp_ratio), rng=rngs[1])

    def forward(self, x: np.ndarray) -> np.ndarray:
        attn_out = self.attention(self.norm1(x))
        x = x + attn_out
        mlp_out = self.mlp(self.norm2(x))
        return x + mlp_out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_mlp = self.norm2.backward(self.mlp.backward(grad_output))
        grad_mid = grad_output + grad_mlp
        grad_attn = self.norm1.backward(self.attention.backward(grad_mid))
        return grad_mid + grad_attn


class TokenMean(Module):
    """Average token embeddings (N, T, D) -> (N, D)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._num_tokens = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output[:, None, :] / self._num_tokens
        return np.broadcast_to(
            grad, (grad_output.shape[0], self._num_tokens, grad_output.shape[1])
        ).copy()
