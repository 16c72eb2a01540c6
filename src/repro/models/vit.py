"""TinyViT — patch-embedding transformer, stand-in for MobileViT / Swin."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.models.blocks import TokenMean, TransformerBlock
from repro.nn.module import Module, Sequential
from repro.nn.parameter import Parameter
from repro.utils.rng import SeedLike, new_rng, spawn_rngs


class _AddPositionalEmbedding(Module):
    """Learned additive positional embedding over (N, T, D) tokens."""

    def __init__(self, num_tokens: int, dim: int, rng: SeedLike = None) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.embedding = Parameter(
            rng.normal(0.0, 0.02, size=(1, num_tokens, dim)), name="pos_embedding"
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._batch = x.shape[0]
        return x + self.embedding.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.embedding.accumulate_grad(grad_output.sum(axis=0, keepdims=True))
        return grad_output


class TinyViT(Module):
    """A small vision transformer: patch embedding, positional embedding,
    pre-norm transformer blocks, token-mean pooling and a linear head."""

    def __init__(
        self,
        num_classes: int,
        image_size: int = 16,
        patch_size: int = 4,
        in_channels: int = 3,
        embed_dim: int = 16,
        depth: int = 2,
        num_heads: int = 2,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        self.num_classes = int(num_classes)
        self.image_size = int(image_size)
        rngs = spawn_rngs(rng, 3 + depth)
        rng_iter = iter(rngs)

        patch = nn.PatchEmbedding(image_size, patch_size, in_channels, embed_dim, rng=next(rng_iter))
        layers = [patch, _AddPositionalEmbedding(patch.num_patches, embed_dim, rng=next(rng_iter))]
        for _ in range(depth):
            layers.append(TransformerBlock(embed_dim, num_heads, rng=next(rng_iter)))
        layers.append(nn.LayerNorm(embed_dim))
        layers.append(TokenMean())
        self.backbone = Sequential(*layers)
        self.feature_dim = embed_dim
        self.head = nn.Linear(embed_dim, num_classes, rng=next(rng_iter))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.head(self.backbone(x))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.backbone.backward(self.head.backward(grad_output))

    def features(self, x: np.ndarray) -> np.ndarray:
        """Penultimate (pre-head) token-mean feature vectors, shape (N, embed_dim)."""
        return self.backbone(x)
