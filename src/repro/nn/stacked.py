"""Stacked-model training engine: run K same-architecture models as one computation.

BPROM's offline cost is dominated by training the pool of M clean + backdoored
shadow models.  Each shadow is tiny, so a sequential pool spends most of its
wall-clock on Python dispatch and sub-BLAS-sized GEMMs.  This module lifts K
structurally identical models into *stacked* modules whose parameters carry a
leading model axis ``(K, ...)`` and whose forward/backward operate on
per-model-stacked minibatches ``(K, B, ...)``: element-wise layers fuse K
models into single numpy ops, and matrix products become batched ``np.matmul``
calls whose 2-D cores are the *same* GEMMs the sequential path issues.

Equivalence is the design constraint, not an afterthought: every stacked op is
arranged so that its per-model slice issues the same operations over the same
memory layout (per-slice GEMM cores, model-axis-leading reductions) as the
corresponding sequential layer.  Training K models with :func:`fit_stacked`
therefore reproduces ``ImageClassifier.fit`` run K times with the same
per-model RNG streams — observed bit-identical on the reference platform and
asserted to <= 1e-9 by the tests and the shadow-training benchmark (exact
bitwise equality of batched-BLAS dispatch is not guaranteed across
platforms), which is what lets the shadow-model artifact cache be shared
between stacked and sequential runs.

Layout
------
* ``stack_modules(modules)`` lifts K modules into one stacked module tree.
  Leaf layers are translated through a registry of stacked counterparts
  (:class:`StackedLinear`, :class:`StackedConv2d`, ...); composite modules
  (``Sequential``, residual blocks, whole models) are lifted *structurally* —
  their own forward/backward code is reused unchanged because it only composes
  child calls with broadcast-safe arithmetic.
* ``unstack_modules(stacked, modules)`` writes trained parameters and buffers
  back into the K original modules.
* ``fit_stacked(classifiers, datasets, config, rngs)`` is the model-axis
  counterpart of ``ImageClassifier.fit``.

The engine only trains.  Pool inference (the meta stage's and MNTD's queries)
runs one model at a time: a stacked forward pass was slower than that loop on
every architecture and raised the stand-up's memory peak.

Out-of-registry leaf modules raise :class:`UnstackableModelError`; callers
(e.g. ``ShadowModelFactory``) catch it and fall back to the sequential loop.
Model zoos outside :mod:`repro.nn` register their own leaf counterparts with
:func:`register_leaf` (see ``repro.models.blocks`` / ``repro.models.vit``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Type

import numpy as np

from repro.nn.activations import GELU, Identity, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.attention import MultiHeadSelfAttention, PatchEmbedding
from repro.nn.conv import Conv2d, conv_engine_override
from repro.nn.functional import im2col, col2im, log_softmax, softmax
from repro.nn.layers import Dropout, Flatten, Linear
from repro.nn.module import Module, grad_enabled
from repro.nn.norm import BatchNorm1d, BatchNorm2d, LayerNorm
from repro.nn.optim import SGD, Adam
from repro.nn.parameter import Parameter
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.utils.rng import SeedLike, new_rng


class UnstackableModelError(TypeError):
    """Raised when a module tree has no stacked counterpart (callers fall back)."""


def _require_uniform(modules: Sequence[Module], attrs: Sequence[str]) -> None:
    first = modules[0]
    for attr in attrs:
        reference = getattr(first, attr)
        for module in modules[1:]:
            if getattr(module, attr) != reference:
                raise UnstackableModelError(
                    f"{type(first).__name__}.{attr} differs across the pool "
                    f"({reference!r} vs {getattr(module, attr)!r})"
                )


# ---------------------------------------------------------------------------
# stacked leaf layers
# ---------------------------------------------------------------------------

class StackedLinear(Module):
    """K :class:`~repro.nn.layers.Linear` layers as one ``(K, out, in)`` weight.

    Input ``(K, B, ..., in)``; each per-model slice issues the same
    ``(rows, in) @ (in, out)`` GEMM as the sequential layer.
    """

    def __init__(
        self,
        pool_size: int,
        in_features: int,
        out_features: int,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        self.pool_size = int(pool_size)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(weight, name="weight")
        self.use_bias = bias is not None
        if self.use_bias:
            self.bias = Parameter(bias, name="bias")

    @classmethod
    def from_modules(cls, modules: Sequence[Linear]) -> "StackedLinear":
        _require_uniform(modules, ("in_features", "out_features", "use_bias"))
        first = modules[0]
        weight = np.stack([m.weight.data for m in modules])
        bias = np.stack([m.bias.data for m in modules]) if first.use_bias else None
        return cls(len(modules), first.in_features, first.out_features, weight, bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        x3 = x.reshape(self.pool_size, -1, self.in_features)
        self._x3 = x3
        out = np.matmul(x3, self.weight.data.transpose(0, 2, 1))
        if self.use_bias:
            out = out + self.bias.data[:, None, :]
        return out.reshape(*self._input_shape[:-1], self.out_features)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad3 = grad_output.reshape(self.pool_size, -1, self.out_features)
        self.weight.accumulate_grad(np.matmul(grad3.transpose(0, 2, 1), self._x3))
        if self.use_bias:
            self.bias.accumulate_grad(grad3.sum(axis=1))
        grad_input = np.matmul(grad3, self.weight.data)
        return grad_input.reshape(self._input_shape)

    def unstack_into(self, modules: Sequence[Linear]) -> None:
        for index, module in enumerate(modules):
            module.weight.copy_(self.weight.data[index])
            if self.use_bias:
                module.bias.copy_(self.bias.data[index])


class StackedConv2d(Module):
    """K :class:`~repro.nn.conv.Conv2d` layers over ``(K, B, C, H, W)`` input.

    The K*B images share one im2col unfold; the per-group projection becomes a
    batched matmul whose per-model 2-D core equals the sequential GEMM.
    """

    def __init__(self, pool_size: int, template: Conv2d, weight, bias) -> None:
        super().__init__()
        self.pool_size = int(pool_size)
        self.in_channels = template.in_channels
        self.out_channels = template.out_channels
        self.kernel_size = template.kernel_size
        self.stride = template.stride
        self.padding = template.padding
        self.groups = template.groups
        self.weight = Parameter(weight, name="weight")
        self.use_bias = bias is not None
        if self.use_bias:
            self.bias = Parameter(bias, name="bias")

    @classmethod
    def from_modules(cls, modules: Sequence[Conv2d]) -> "StackedConv2d":
        _require_uniform(
            modules,
            ("in_channels", "out_channels", "kernel_size", "stride", "padding", "groups", "use_bias"),
        )
        first = modules[0]
        weight = np.stack([m.weight.data for m in modules])
        bias = np.stack([m.bias.data for m in modules]) if first.use_bias else None
        return cls(len(modules), first, weight, bias)

    def _unfold_group(self, x_flat: np.ndarray, group: int):
        cin_g = self.in_channels // self.groups
        xg = x_flat if self.groups == 1 else x_flat[:, group * cin_g : (group + 1) * cin_g]
        return im2col(xg, self.kernel_size, self.stride, self.padding)

    def _select_pointwise(self, x: np.ndarray) -> bool:
        # precision-gated exactly like Conv2d's pointwise engine, and with the
        # same per-model core shapes, so the stacked layer and its sequential
        # twin always round identically for the same input dtype
        return (
            self.kernel_size == 1
            and self.padding == 0
            and self.groups == 1
            and (x.dtype == np.float32 or conv_engine_override() == "implicit")
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        pool, batch = x.shape[0], x.shape[1]
        self._input_shape = x.shape
        self._dtype = x.dtype
        self._pointwise = self._select_pointwise(x)
        if self._pointwise:
            return self._forward_pointwise(x)
        x_flat = x.reshape(pool * batch, *x.shape[2:])
        cout_g = self.out_channels // self.groups
        cols_cache = [] if grad_enabled() else None
        outputs = []
        for group in range(self.groups):
            cols, out_h, out_w = self._unfold_group(x_flat, group)
            cols3 = cols.reshape(pool, batch * out_h * out_w, -1)
            if cols_cache is not None:
                cols_cache.append(cols3)
            wg = self.weight.data[:, group * cout_g : (group + 1) * cout_g]
            w_mat = wg.reshape(self.pool_size, cout_g, -1)
            outputs.append(np.matmul(cols3, w_mat.transpose(0, 2, 1)))
        self._out_hw = (out_h, out_w)
        self._cols = cols_cache
        merged = outputs[0] if self.groups == 1 else np.concatenate(outputs, axis=2)
        merged = merged.reshape(pool, batch, out_h, out_w, self.out_channels)
        merged = merged.transpose(0, 1, 4, 2, 3)
        if self.use_bias:
            merged = merged + self.bias.data[:, None, :, None, None]
        return merged

    def _forward_pointwise(self, x: np.ndarray) -> np.ndarray:
        # per-model 1x1 convs are channel-mixing matmuls; a single batched
        # matmul over the model axis has the same per-model 2-D GEMM core
        # shape as the sequential pointwise path, so the twins round alike
        pool, batch = x.shape[0], x.shape[1]
        xs = x if self.stride == 1 else x[:, :, :, :: self.stride, :: self.stride]
        out_h, out_w = xs.shape[3], xs.shape[4]
        x4 = xs.reshape(pool, batch, self.in_channels, out_h * out_w)
        self._pw_x4 = x4
        self._out_hw = (out_h, out_w)
        w3 = self.weight.data.reshape(pool, self.out_channels, self.in_channels)
        merged = np.matmul(w3[:, None], x4).reshape(
            pool, batch, self.out_channels, out_h, out_w
        )
        if self.use_bias:
            merged = merged + self.bias.data[:, None, :, None, None]
        return merged

    def _backward_pointwise(self, grad_output: np.ndarray) -> np.ndarray:
        pool, batch = self._input_shape[:2]
        out_h, out_w = self._out_hw
        hw = out_h * out_w
        if self.use_bias:
            self.bias.accumulate_grad(grad_output.sum(axis=(1, 3, 4)))
        x4 = self._pw_x4
        g4 = grad_output.reshape(pool, batch, self.out_channels, hw)
        # grad-weight core per model: (C_out, B*L) @ (B*L, C_in), matching the
        # sequential pointwise GEMM row order (image-major then output-pixel)
        g_rows = g4.transpose(0, 2, 1, 3).reshape(pool, self.out_channels, batch * hw)
        x_rows = x4.transpose(0, 1, 3, 2).reshape(pool, batch * hw, self.in_channels)
        self.weight.accumulate_grad(
            np.matmul(g_rows, x_rows).reshape(self.weight.data.shape)
        )
        w3 = self.weight.data.reshape(pool, self.out_channels, self.in_channels)
        grad4 = np.matmul(w3.transpose(0, 2, 1)[:, None], g4)
        if self.stride == 1:
            grad_input = grad4.reshape(self._input_shape)
        else:
            grad_input = np.zeros(self._input_shape, dtype=grad4.dtype)
            grad_input[:, :, :, :: self.stride, :: self.stride] = grad4.reshape(
                pool, batch, self.in_channels, out_h, out_w
            )
        return np.asarray(grad_input, dtype=self._dtype)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if getattr(self, "_pointwise", False):
            return self._backward_pointwise(grad_output)
        cols_cache = self._saved(getattr(self, "_cols", None))
        pool, batch = self._input_shape[:2]
        out_h, out_w = self._out_hw
        cin_g = self.in_channels // self.groups
        cout_g = self.out_channels // self.groups
        if self.use_bias:
            self.bias.accumulate_grad(grad_output.sum(axis=(1, 3, 4)))
        grad_flat = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            pool, batch * out_h * out_w, self.out_channels
        )
        grad_weight = np.empty_like(self.weight.data)
        flat_group_shape = (pool * batch, cin_g, self._input_shape[3], self._input_shape[4])
        grad_input = np.empty(
            (pool * batch, self.in_channels, self._input_shape[3], self._input_shape[4]),
            dtype=self._dtype,
        )
        for group in range(self.groups):
            gout = grad_flat[:, :, group * cout_g : (group + 1) * cout_g]
            cols3 = cols_cache[group]
            wg = self.weight.data[:, group * cout_g : (group + 1) * cout_g]
            w_mat = wg.reshape(self.pool_size, cout_g, -1)
            grad_weight[:, group * cout_g : (group + 1) * cout_g] = np.matmul(
                gout.transpose(0, 2, 1), cols3
            ).reshape(self.pool_size, cout_g, cin_g, self.kernel_size, self.kernel_size)
            grad_cols = np.matmul(gout, w_mat)
            grad_input[:, group * cin_g : (group + 1) * cin_g] = col2im(
                grad_cols.reshape(pool * batch * out_h * out_w, -1),
                flat_group_shape,
                self.kernel_size,
                self.stride,
                self.padding,
            )
        self.weight.accumulate_grad(grad_weight)
        return grad_input.reshape(self._input_shape)

    def unstack_into(self, modules: Sequence[Conv2d]) -> None:
        for index, module in enumerate(modules):
            module.weight.copy_(self.weight.data[index])
            if self.use_bias:
                module.bias.copy_(self.bias.data[index])


class _StackedBatchNormBase(Module):
    """Shared machinery for stacked BatchNorm1d/2d: per-model ``(K, C)`` state."""

    def __init__(self, pool_size: int, template, gamma, beta, running_mean, running_var) -> None:
        super().__init__()
        self.pool_size = int(pool_size)
        self.num_features = template.num_features
        self.momentum = template.momentum
        self.eps = template.eps
        self.gamma = Parameter(gamma, name="gamma")
        self.beta = Parameter(beta, name="beta")
        self.register_buffer("running_mean", running_mean)
        self.register_buffer("running_var", running_var)

    @classmethod
    def from_modules(cls, modules) -> "_StackedBatchNormBase":
        _require_uniform(modules, ("num_features", "momentum", "eps"))
        return cls(
            len(modules),
            modules[0],
            np.stack([m.gamma.data for m in modules]),
            np.stack([m.beta.data for m in modules]),
            np.stack([m.get_buffer("running_mean") for m in modules]),
            np.stack([m.get_buffer("running_var") for m in modules]),
        )

    def _to_3d(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _from_3d(self, x3: np.ndarray, shape) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        # the engine only trains (pools are queried one model at a time), so
        # there is no running-statistics path to normalise with
        if not self.training:
            raise RuntimeError("stacked BatchNorm runs only in training mode")
        self._shape = x.shape
        x3 = self._to_3d(x)
        mean = x3.mean(axis=1)
        var = x3.var(axis=1)
        n = x3.shape[1]
        unbiased = var * n / max(n - 1, 1)
        self.set_buffer(
            "running_mean",
            (1 - self.momentum) * self.get_buffer("running_mean") + self.momentum * mean,
        )
        self.set_buffer(
            "running_var",
            (1 - self.momentum) * self.get_buffer("running_var") + self.momentum * unbiased,
        )
        self._std_inv = 1.0 / np.sqrt(var + self.eps)
        self._x_hat = (x3 - mean[:, None, :]) * self._std_inv[:, None, :]
        out3 = self.gamma.data[:, None, :] * self._x_hat + self.beta.data[:, None, :]
        return self._from_3d(out3, x.shape)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        g3 = self._to_3d(grad_output)
        n = g3.shape[1]
        self.gamma.accumulate_grad(np.sum(g3 * self._x_hat, axis=1))
        self.beta.accumulate_grad(np.sum(g3, axis=1))
        dx_hat = g3 * self.gamma.data[:, None, :]
        grad3 = (
            self._std_inv[:, None, :]
            / n
            * (
                n * dx_hat
                - np.sum(dx_hat, axis=1, keepdims=True)
                - self._x_hat * np.sum(dx_hat * self._x_hat, axis=1, keepdims=True)
            )
        )
        return self._from_3d(grad3, self._shape)

    def unstack_into(self, modules) -> None:
        for index, module in enumerate(modules):
            module.gamma.copy_(self.gamma.data[index])
            module.beta.copy_(self.beta.data[index])
            module.set_buffer("running_mean", self.get_buffer("running_mean")[index].copy())
            module.set_buffer("running_var", self.get_buffer("running_var")[index].copy())


class StackedBatchNorm1d(_StackedBatchNormBase):
    """K BatchNorm1d layers over ``(K, B, C)`` input."""

    def _to_3d(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"StackedBatchNorm1d expects (K, B, C) input, got shape {x.shape}")
        return x

    def _from_3d(self, x3: np.ndarray, shape) -> np.ndarray:
        return x3


class StackedBatchNorm2d(_StackedBatchNormBase):
    """K BatchNorm2d layers over ``(K, B, C, H, W)`` input."""

    def _to_3d(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5:
            raise ValueError(
                f"StackedBatchNorm2d expects (K, B, C, H, W) input, got shape {x.shape}"
            )
        k, b, c, h, w = x.shape
        return x.transpose(0, 1, 3, 4, 2).reshape(k, b * h * w, c)

    def _from_3d(self, x3: np.ndarray, shape) -> np.ndarray:
        k, b, c, h, w = shape
        return x3.reshape(k, b, h, w, c).transpose(0, 1, 4, 2, 3)


class StackedLayerNorm(Module):
    """K LayerNorm layers; normalisation stays on the trailing feature axis."""

    def __init__(self, pool_size: int, num_features: int, eps: float, gamma, beta) -> None:
        super().__init__()
        self.pool_size = int(pool_size)
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.gamma = Parameter(gamma, name="gamma")
        self.beta = Parameter(beta, name="beta")

    @classmethod
    def from_modules(cls, modules: Sequence[LayerNorm]) -> "StackedLayerNorm":
        _require_uniform(modules, ("num_features", "eps"))
        first = modules[0]
        return cls(
            len(modules),
            first.num_features,
            first.eps,
            np.stack([m.gamma.data for m in modules]),
            np.stack([m.beta.data for m in modules]),
        )

    def _broadcast(self, data: np.ndarray, ndim: int) -> np.ndarray:
        return data.reshape(self.pool_size, *([1] * (ndim - 2)), self.num_features)

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        self._std_inv = 1.0 / np.sqrt(var + self.eps)
        self._x_hat = (x - mean) * self._std_inv
        return self._broadcast(self.gamma.data, x.ndim) * self._x_hat + self._broadcast(
            self.beta.data, x.ndim
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        axes = tuple(range(1, grad_output.ndim - 1))
        self.gamma.accumulate_grad(np.sum(grad_output * self._x_hat, axis=axes))
        self.beta.accumulate_grad(np.sum(grad_output, axis=axes))
        d = self.num_features
        dx_hat = grad_output * self._broadcast(self.gamma.data, grad_output.ndim)
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

    def unstack_into(self, modules: Sequence[LayerNorm]) -> None:
        for index, module in enumerate(modules):
            module.gamma.copy_(self.gamma.data[index])
            module.beta.copy_(self.beta.data[index])


class StackedFlatten(Module):
    """Flatten all non-(model, batch) dimensions."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._input_shape)

    def unstack_into(self, modules) -> None:
        pass


class StackedGlobalAvgPool2d(Module):
    """Average over spatial positions: ``(K, B, C, H, W) -> (K, B, C)``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.mean(axis=(3, 4))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        k, b, c, h, w = self._input_shape
        grad = grad_output[:, :, :, None, None] / (h * w)
        return np.broadcast_to(grad, self._input_shape).copy()

    def unstack_into(self, modules) -> None:
        pass


class _StackedSpatialPool(Module):
    """Max/Avg pooling lifted by folding the model axis into the batch axis.

    Pooling has no per-model parameters, so the inner sequential layer runs on
    the ``(K*B, C, H, W)`` fold and produces per-image results identical to
    the sequential path.
    """

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.inner = inner

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._lead = x.shape[:2]
        out = self.inner.forward(x.reshape(-1, *x.shape[2:]))
        return out.reshape(*self._lead, *out.shape[1:])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.inner.backward(grad_output.reshape(-1, *grad_output.shape[2:]))
        return grad.reshape(*self._lead, *grad.shape[1:])

    def unstack_into(self, modules) -> None:
        pass


class StackedTokenMean(Module):
    """Average token embeddings: ``(K, B, T, D) -> (K, B, D)``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._num_tokens = x.shape[2]
        return x.mean(axis=2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        k, b, d = grad_output.shape
        grad = grad_output[:, :, None, :] / self._num_tokens
        return np.broadcast_to(grad, (k, b, self._num_tokens, d)).copy()

    def unstack_into(self, modules) -> None:
        pass


class StackedAdditiveEmbedding(Module):
    """K learned additive embeddings (e.g. positional embeddings).

    The per-model parameter keeps its original shape behind the leading model
    axis, so ``x + embedding`` broadcasts over the batch axis exactly like the
    sequential layer.
    """

    def __init__(self, stacked_data: np.ndarray, param_name: str) -> None:
        super().__init__()
        self._param_name = param_name
        self.embedding = Parameter(stacked_data, name=param_name)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.embedding.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.embedding.accumulate_grad(grad_output.sum(axis=1, keepdims=True))
        return grad_output

    def unstack_into(self, modules) -> None:
        for index, module in enumerate(modules):
            getattr(module, self._param_name).copy_(self.embedding.data[index])


class StackedPatchEmbedding(Module):
    """K patch embeddings: patchify with a leading model axis + stacked projection."""

    def __init__(self, pool_size: int, template: PatchEmbedding, proj: StackedLinear) -> None:
        super().__init__()
        self.pool_size = int(pool_size)
        self.image_size = template.image_size
        self.patch_size = template.patch_size
        self.in_channels = template.in_channels
        self.embed_dim = template.embed_dim
        self.grid = template.grid
        self.num_patches = template.num_patches
        self.patch_dim = template.patch_dim
        self.proj = proj

    @classmethod
    def from_modules(cls, modules: Sequence[PatchEmbedding]) -> "StackedPatchEmbedding":
        _require_uniform(modules, ("image_size", "patch_size", "in_channels", "embed_dim"))
        proj = StackedLinear.from_modules([m.proj for m in modules])
        return cls(len(modules), modules[0], proj)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[3] != self.image_size or x.shape[4] != self.image_size:
            raise ValueError(
                f"expected {self.image_size}x{self.image_size} input, got "
                f"{x.shape[3]}x{x.shape[4]}"
            )
        k, b = x.shape[:2]
        self._lead = (k, b)
        p, g, c = self.patch_size, self.grid, self.in_channels
        tokens = x.reshape(k, b, c, g, p, g, p)
        tokens = tokens.transpose(0, 1, 3, 5, 2, 4, 6).reshape(k, b, g * g, c * p * p)
        return self.proj(tokens)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_tokens = self.proj.backward(grad_output)
        k, b = self._lead
        p, g, c = self.patch_size, self.grid, self.in_channels
        grad = grad_tokens.reshape(k, b, g, g, c, p, p).transpose(0, 1, 4, 2, 5, 3, 6)
        return grad.reshape(k, b, c, g * p, g * p)

    def unstack_into(self, modules: Sequence[PatchEmbedding]) -> None:
        self.proj.unstack_into([m.proj for m in modules])


class StackedMultiHeadSelfAttention(Module):
    """K self-attention layers over ``(K, B, T, D)`` tokens."""

    def __init__(
        self,
        pool_size: int,
        template: MultiHeadSelfAttention,
        q_proj: StackedLinear,
        k_proj: StackedLinear,
        v_proj: StackedLinear,
        out_proj: StackedLinear,
    ) -> None:
        super().__init__()
        self.pool_size = int(pool_size)
        self.embed_dim = template.embed_dim
        self.num_heads = template.num_heads
        self.head_dim = template.head_dim
        self.q_proj = q_proj
        self.k_proj = k_proj
        self.v_proj = v_proj
        self.out_proj = out_proj

    @classmethod
    def from_modules(
        cls, modules: Sequence[MultiHeadSelfAttention]
    ) -> "StackedMultiHeadSelfAttention":
        _require_uniform(modules, ("embed_dim", "num_heads"))
        return cls(
            len(modules),
            modules[0],
            StackedLinear.from_modules([m.q_proj for m in modules]),
            StackedLinear.from_modules([m.k_proj for m in modules]),
            StackedLinear.from_modules([m.v_proj for m in modules]),
            StackedLinear.from_modules([m.out_proj for m in modules]),
        )

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        k, b, t, _ = x.shape
        return x.reshape(k, b, t, self.num_heads, self.head_dim).transpose(0, 1, 3, 2, 4)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        k, b, h, t, d = x.shape
        return x.transpose(0, 1, 3, 2, 4).reshape(k, b, t, h * d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split_heads(self.q_proj(x))
        key = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = np.matmul(q, key.transpose(0, 1, 2, 4, 3)) * scale
        attn = softmax(scores, axis=-1)
        context = np.matmul(attn, v)
        self._q, self._k, self._v, self._attn, self._scale = q, key, v, attn, scale
        return self.out_proj(self._merge_heads(context))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_merged = self.out_proj.backward(grad_output)
        grad_context = self._split_heads(grad_merged)
        grad_attn = np.matmul(grad_context, self._v.transpose(0, 1, 2, 4, 3))
        grad_v = np.matmul(self._attn.transpose(0, 1, 2, 4, 3), grad_context)
        sum_term = np.sum(grad_attn * self._attn, axis=-1, keepdims=True)
        grad_scores = self._attn * (grad_attn - sum_term)
        grad_q = np.matmul(grad_scores, self._k) * self._scale
        grad_k = np.matmul(grad_scores.transpose(0, 1, 2, 4, 3), self._q) * self._scale
        grad_x = self.q_proj.backward(self._merge_heads(grad_q))
        grad_x = grad_x + self.k_proj.backward(self._merge_heads(grad_k))
        grad_x = grad_x + self.v_proj.backward(self._merge_heads(grad_v))
        return grad_x

    def unstack_into(self, modules: Sequence[MultiHeadSelfAttention]) -> None:
        self.q_proj.unstack_into([m.q_proj for m in modules])
        self.k_proj.unstack_into([m.k_proj for m in modules])
        self.v_proj.unstack_into([m.v_proj for m in modules])
        self.out_proj.unstack_into([m.out_proj for m in modules])


# ---------------------------------------------------------------------------
# lifting / unstacking
# ---------------------------------------------------------------------------

_LEAF_LIFTERS: Dict[Type[Module], Callable[[Sequence[Module]], Module]] = {}


def register_leaf(cls: Type[Module], lifter: Callable[[Sequence[Module]], Module]) -> None:
    """Register a stacked counterpart for a leaf module class.

    Model zoos outside :mod:`repro.nn` call this for their private leaf layers
    so the generic :func:`stack_modules` walk can lift whole architectures.
    """
    _LEAF_LIFTERS[cls] = lifter


def _lift_dropout(modules: Sequence[Dropout]) -> Module:
    # an active dropout draws per-model RNG streams the stacked path does not
    # model; p == 0 is a deterministic identity and lifts trivially
    if any(m.p != 0.0 for m in modules):
        raise UnstackableModelError("Dropout with p > 0 has no stacked counterpart")
    return Identity()


register_leaf(Linear, StackedLinear.from_modules)
register_leaf(Conv2d, StackedConv2d.from_modules)
register_leaf(BatchNorm1d, StackedBatchNorm1d.from_modules)
register_leaf(BatchNorm2d, StackedBatchNorm2d.from_modules)
register_leaf(LayerNorm, StackedLayerNorm.from_modules)
register_leaf(Flatten, lambda mods: StackedFlatten())
register_leaf(GlobalAvgPool2d, lambda mods: StackedGlobalAvgPool2d())
register_leaf(MaxPool2d, lambda mods: _stacked_pool(mods, MaxPool2d))
register_leaf(AvgPool2d, lambda mods: _stacked_pool(mods, AvgPool2d))
register_leaf(PatchEmbedding, StackedPatchEmbedding.from_modules)
register_leaf(MultiHeadSelfAttention, StackedMultiHeadSelfAttention.from_modules)
register_leaf(Dropout, _lift_dropout)
# element-wise activations are shape-agnostic: a fresh sequential instance
# applied to the (K, B, ...) stack performs identical per-element operations
register_leaf(ReLU, lambda mods: ReLU())
register_leaf(LeakyReLU, lambda mods: _uniform_leaky(mods))
register_leaf(GELU, lambda mods: GELU())
register_leaf(Sigmoid, lambda mods: Sigmoid())
register_leaf(Tanh, lambda mods: Tanh())
register_leaf(Identity, lambda mods: Identity())


def _uniform_leaky(modules: Sequence[LeakyReLU]) -> LeakyReLU:
    _require_uniform(modules, ("negative_slope",))
    return LeakyReLU(modules[0].negative_slope)


def _stacked_pool(modules, cls) -> _StackedSpatialPool:
    _require_uniform(modules, ("kernel_size", "stride"))
    return _StackedSpatialPool(cls(modules[0].kernel_size, modules[0].stride))


_STRUCTURAL_SKIP = ("_parameters", "_modules", "_buffers")


def stack_modules(modules: Sequence[Module]) -> Module:
    """Lift K structurally identical modules into one stacked module tree.

    Leaves are translated through the registry; composites are lifted by
    rebuilding the object around stacked children, reusing the composite's own
    forward/backward code (which is broadcast-safe by construction).  Raises
    :class:`UnstackableModelError` for unsupported structures.
    """
    modules = list(modules)
    if not modules:
        raise ValueError("cannot stack an empty list of modules")
    first = modules[0]
    cls = type(first)
    for module in modules[1:]:
        if type(module) is not cls:
            raise UnstackableModelError(
                f"mixed module classes in the pool: {cls.__name__} vs {type(module).__name__}"
            )
    lifter = _LEAF_LIFTERS.get(cls)
    if lifter is not None:
        return lifter(modules)
    if first._parameters or getattr(first, "_buffers", None):
        raise UnstackableModelError(
            f"no stacked counterpart registered for {cls.__name__} "
            "(it holds parameters or buffers directly)"
        )
    if not first._modules:
        raise UnstackableModelError(f"no stacked counterpart registered for leaf {cls.__name__}")
    child_names = list(first._modules)
    for module in modules[1:]:
        if list(module._modules) != child_names:
            raise UnstackableModelError(
                f"{cls.__name__} children disagree across the pool"
            )
    shell = object.__new__(cls)
    state = {
        key: value for key, value in first.__dict__.items() if key not in _STRUCTURAL_SKIP
    }
    shell.__dict__.update(state)
    shell.__dict__["_parameters"] = {}
    shell.__dict__["_modules"] = {}
    for name in child_names:
        shell.add_module(name, stack_modules([m._modules[name] for m in modules]))
    return shell


def unstack_modules(stacked: Module, modules: Sequence[Module]) -> None:
    """Write a stacked tree's parameters/buffers back into the K originals."""
    unstack = getattr(stacked, "unstack_into", None)
    if unstack is not None:
        unstack(modules)
        return
    for name, child in stacked._modules.items():
        unstack_modules(child, [m._modules[name] for m in modules])


# ---------------------------------------------------------------------------
# stacked loss / optimisers
# ---------------------------------------------------------------------------

class StackedCrossEntropyLoss:
    """Per-model softmax cross-entropy over ``(K, B, C)`` logits.

    ``forward`` returns the K per-model mean losses; ``backward`` returns the
    gradient of each model's mean loss, so one stacked backward pass is K
    independent sequential backward passes.
    """

    def __init__(self, label_smoothing: float = 0.0) -> None:
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
        self.label_smoothing = float(label_smoothing)

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        pool, batch, num_classes = logits.shape
        if labels.shape != (pool, batch):
            raise ValueError(
                f"labels shape {labels.shape} does not match logits {logits.shape}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError(
                f"labels out of range [0, {num_classes}): [{labels.min()}, {labels.max()}]"
            )
        # follow the logits dtype (float32 tier) so backward's gradient does
        # not upcast the stacked backward pass to float64
        target_dtype = np.float32 if logits.dtype == np.float32 else np.float64
        targets = np.zeros((pool, batch, num_classes), dtype=target_dtype)
        targets[np.arange(pool)[:, None], np.arange(batch)[None, :], labels] = 1.0
        if self.label_smoothing > 0:
            targets = (
                targets * (1.0 - self.label_smoothing) + self.label_smoothing / num_classes
            )
        self._targets = targets
        self._probs = softmax(logits, axis=-1)
        log_probs = log_softmax(logits, axis=-1)
        return -np.sum(targets * log_probs, axis=(1, 2)) / batch

    def backward(self) -> np.ndarray:
        batch = self._probs.shape[1]
        return (self._probs - self._targets) / batch

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return self.forward(logits, labels)


class StackedAdam(Adam):
    """Adam over stacked ``(K, ...)`` parameters.

    Adam's update is element-wise, so the sequential implementation applied to
    stacked tensors performs per-model updates bit-identical to K independent
    optimisers; this subclass exists to make the stacked training engine's
    surface explicit.
    """


class StackedSGD(SGD):
    """SGD (momentum + decoupled weight decay) over stacked ``(K, ...)`` parameters."""


# ---------------------------------------------------------------------------
# stacked training
# ---------------------------------------------------------------------------

def fit_stacked(
    classifiers: Sequence,
    train_datasets: Sequence,
    config=None,
    rngs: Optional[Sequence[SeedLike]] = None,
) -> List:
    """Train K same-architecture classifiers simultaneously along a model axis.

    The model-axis counterpart of ``ImageClassifier.fit``: lifts the K wrapped
    models into one stacked tree, iterates epochs/minibatches once, and
    unstacks the trained parameters (and per-model ``TrainingHistory``) back.
    Each model keeps its own dataset, RNG stream and shuffle order, so the
    result matches K sequential ``fit`` calls with the same seeds exactly.

    Raises :class:`UnstackableModelError` when the pool cannot be lifted
    (heterogeneous architectures, unsupported layers, datasets of unequal
    length); callers fall back to the sequential loop.
    """
    # imported lazily: nn.stacked must not pull the model layer in at import
    # time (repro.models itself imports repro.nn)
    from repro.config import TrainingConfig
    from repro.models.classifier import TrainingHistory

    classifiers = list(classifiers)
    if not classifiers:
        raise ValueError("fit_stacked needs at least one classifier")
    if len(train_datasets) != len(classifiers):
        raise ValueError("classifiers and train_datasets disagree on length")
    config = config or TrainingConfig()
    pool = len(classifiers)
    if rngs is None:
        rngs = [None] * pool
    if len(rngs) != pool:
        raise ValueError("rngs and classifiers disagree on length")
    generators = [new_rng(rng) for rng in rngs]
    lengths = {len(dataset) for dataset in train_datasets}
    if len(lengths) != 1:
        raise UnstackableModelError("stacked training needs equal-length datasets")
    num_samples = lengths.pop()
    stacked = stack_modules([c.model for c in classifiers])

    params = stacked.parameters()
    if config.optimizer.lower() == "sgd":
        optimizer = StackedSGD(
            params, lr=config.learning_rate, momentum=0.9, weight_decay=config.weight_decay
        )
    elif config.optimizer.lower() == "adam":
        optimizer = StackedAdam(
            params, lr=config.learning_rate, weight_decay=config.weight_decay
        )
    else:
        raise ValueError(f"unknown optimizer {config.optimizer!r}")
    criterion = StackedCrossEntropyLoss(label_smoothing=config.label_smoothing)

    images = [dataset.images for dataset in train_datasets]
    labels = [dataset.labels for dataset in train_datasets]
    # minibatches follow the parameter dtype (float32 tier models run their
    # whole forward/backward in float32; float64 casts are no-ops)
    param_dtype = params[0].data.dtype if params else np.float64
    stacked.train()
    histories = [TrainingHistory() for _ in range(pool)]
    for _ in range(config.epochs):
        # one independent shuffle stream per model, mirroring
        # ImageDataset.batches(shuffle=True, rng=rng) draw for draw
        orders = [rng.permutation(np.arange(num_samples)) for rng in generators]
        epoch_losses: List[List[float]] = [[] for _ in range(pool)]
        epoch_accs: List[List[float]] = [[] for _ in range(pool)]
        for start in range(0, num_samples, config.batch_size):
            batch_idx = [order[start : start + config.batch_size] for order in orders]
            xb = np.stack([images[i][batch_idx[i]] for i in range(pool)]).astype(
                param_dtype, copy=False
            )
            yb = np.stack([labels[i][batch_idx[i]] for i in range(pool)])
            logits = stacked(xb)
            losses = criterion(logits, yb)
            optimizer.zero_grad()
            stacked.backward(criterion.backward())
            optimizer.step()
            predictions = np.argmax(logits, axis=-1)
            for i in range(pool):
                epoch_losses[i].append(float(losses[i]))
                epoch_accs[i].append(float(np.mean(predictions[i] == yb[i])))
        for i in range(pool):
            histories[i].losses.append(float(np.mean(epoch_losses[i])))
            histories[i].train_accuracies.append(float(np.mean(epoch_accs[i])))
    stacked.eval()
    unstack_modules(stacked, [c.model for c in classifiers])
    for classifier, history in zip(classifiers, histories):
        classifier.model.eval()
        classifier.history = history
    return histories
