"""Patch embedding and multi-head self-attention for the transformer-style models.

These layers back the ``TinyViT`` architecture (the reproduction's stand-in for
MobileViT / Swin Transformer in the paper's architecture-agnosticism study).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import Linear
from repro.nn.module import Module, grad_enabled
from repro.utils.rng import SeedLike, spawn_rngs


class PatchEmbedding(Module):
    """Split an NCHW image into non-overlapping patches and project them to tokens.

    Output shape is ``(N, num_patches, embed_dim)``.
    """

    def __init__(
        self,
        image_size: int,
        patch_size: int,
        in_channels: int,
        embed_dim: int,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if image_size % patch_size != 0:
            raise ValueError(
                f"image_size ({image_size}) must be divisible by patch_size ({patch_size})"
            )
        self.image_size = int(image_size)
        self.patch_size = int(patch_size)
        self.in_channels = int(in_channels)
        self.embed_dim = int(embed_dim)
        self.grid = image_size // patch_size
        self.num_patches = self.grid * self.grid
        self.patch_dim = in_channels * patch_size * patch_size
        self.proj = Linear(self.patch_dim, embed_dim, rng=rng)

    def _patchify(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.patch_size
        g = self.grid
        x = x.reshape(n, c, g, p, g, p)
        # (N, gH, gW, C, p, p) -> (N, tokens, patch_dim)
        x = x.transpose(0, 2, 4, 1, 3, 5).reshape(n, g * g, c * p * p)
        return x

    def _unpatchify_grad(self, grad: np.ndarray, n: int) -> np.ndarray:
        p = self.patch_size
        g = self.grid
        c = self.in_channels
        grad = grad.reshape(n, g, g, c, p, p).transpose(0, 3, 1, 4, 2, 5)
        return grad.reshape(n, c, g * p, g * p)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[2] != self.image_size or x.shape[3] != self.image_size:
            raise ValueError(
                f"expected {self.image_size}x{self.image_size} input, got "
                f"{x.shape[2]}x{x.shape[3]}"
            )
        self._n = x.shape[0]
        tokens = self._patchify(x)
        return self.proj(tokens)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_tokens = self.proj.backward(grad_output)
        return self._unpatchify_grad(grad_tokens, self._n)


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention over (N, T, D) tokens."""

    def __init__(self, embed_dim: int, num_heads: int, rng: SeedLike = None) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim ({embed_dim}) must be divisible by num_heads ({num_heads})"
            )
        self.embed_dim = int(embed_dim)
        self.num_heads = int(num_heads)
        self.head_dim = embed_dim // num_heads
        rngs = spawn_rngs(rng, 4)
        self.q_proj = Linear(embed_dim, embed_dim, rng=rngs[0])
        self.k_proj = Linear(embed_dim, embed_dim, rng=rngs[1])
        self.v_proj = Linear(embed_dim, embed_dim, rng=rngs[2])
        self.out_proj = Linear(embed_dim, embed_dim, rng=rngs[3])

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        n, t, _ = x.shape
        return x.reshape(n, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        n, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n, t, h * d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))
        # Python float, not np.float64 scalar: a 0-d float64 would promote
        # float32 activations to float64 under NumPy 2 promotion rules
        scale = 1.0 / float(np.sqrt(self.head_dim))
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
        attn = softmax(scores, axis=-1)
        context = np.matmul(attn, v)
        # backward reads all four even when the projections are frozen;
        # under no_grad() out_proj.backward raises before they are read
        if grad_enabled():
            self._q, self._k, self._v, self._attn = q, k, v, attn
        else:
            self._q = self._k = self._v = self._attn = None
        self._scale = scale
        merged = self._merge_heads(context)
        return self.out_proj(merged)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_merged = self.out_proj.backward(grad_output)
        n, t, _ = grad_merged.shape
        grad_context = self._split_heads(grad_merged)
        grad_attn = np.matmul(grad_context, self._v.transpose(0, 1, 3, 2))
        grad_v = np.matmul(self._attn.transpose(0, 1, 3, 2), grad_context)
        # softmax backward along the key axis
        sum_term = np.sum(grad_attn * self._attn, axis=-1, keepdims=True)
        grad_scores = self._attn * (grad_attn - sum_term)
        grad_q = np.matmul(grad_scores, self._k) * self._scale
        grad_k = np.matmul(grad_scores.transpose(0, 1, 3, 2), self._q) * self._scale
        grad_x = self.q_proj.backward(self._merge_heads(grad_q))
        grad_x = grad_x + self.k_proj.backward(self._merge_heads(grad_k))
        grad_x = grad_x + self.v_proj.backward(self._merge_heads(grad_v))
        return grad_x
