"""2-D convolution with selectable engines: implicit GEMM, pointwise, im2col.

The layer keeps three interchangeable execution paths for ``groups == 1``:

* **pointwise** — ``kernel_size == 1 && padding == 0``: the convolution *is* a
  channel-mixing matmul, so forward/backward run directly on the (strided)
  input without any unfold at all.
* **implicit GEMM** — contract ``einsum('nchwyx,ocyx->nohw')`` directly over
  the zero-copy :func:`~repro.nn.functional.conv_windows` placement view,
  never materialising the ``(N*L, C*k*k)`` column copy that makes explicit
  im2col memory-bound; grad-input uses the fused cache-blocked
  :func:`~repro.nn.functional.matmul_col2im`.
* **im2col** — the explicit unfold-GEMM path (also the grouped/depthwise
  fallback).  Ungrouped, it multiplies one image tile at a time
  (:func:`~repro.nn.functional.im2col_matmul`; a float64 batch of several
  tiles gives the whole-batch GEMM's bytes), and folds the input gradient
  tile by tile through :func:`~repro.nn.functional.matmul_col2im`.  Grouped,
  each group runs one whole-batch GEMM and folds its full column gradient
  with :func:`~repro.nn.functional.col2im`.

Engine selection is **precision-gated**.  Re-orienting a GEMM, or re-tiling
it against the transposed weight view, changes BLAS kernel choice and hence
accumulation rounding on some shapes, so the alternative engines are *not*
bitwise-interchangeable with im2col — they agree only to accumulation-rounding
tolerance (~1e-15 relative per element in float64).  The float64 reference
tier carries a bit-identity contract (the same pool bytes on any worker
count, warm artifact caches keyed on weight fingerprints), so under ``auto``
it always runs im2col.
Splitting a GEMM's rows into image tiles, with both operands laid out as in
the whole GEMM, is safe in float64: the forward's tiles multiply against a
C-contiguous copy of ``W.T``, and the input gradient's tiles run rows of the
same ``grad_flat @ w_mat`` NN GEMM, each folded by the cache-blocked
scatter-add of :func:`~repro.nn.functional.col2im`, whose blocking provably
preserves per-element accumulation order.  The weight gradient stays one
whole-batch ``grad_flat.T @ cols`` GEMM, because tiling would split its sum.
The float32 training tier's contract is tolerance-bounded detector
equivalence, not byte parity, so under ``auto`` it picks pointwise / implicit
by the size heuristic (implicit once the would-be column buffer exceeds
``_IMPLICIT_MIN_COLS_BYTES``; dispatch-bound small shapes stay on im2col).
``REPRO_CONV_ENGINE`` (``auto`` | ``im2col`` | ``implicit``) overrides the
heuristic in any dtype for benchmarking and the engine-parity tests.

Every engine keeps its weight-gradient operand (the strided input, the
placement view, or for im2col the input itself, whose columns backward
re-gathers just before the weight GEMM) only when backward will compute the
weight gradient: not under :func:`~repro.nn.module.no_grad` (inference) and
not for a frozen weight (white-box prompting's source model).  No engine
keeps a k^2-sized column matrix, and the input gradient reads none of these
operands.
"""

from __future__ import annotations

import os

import numpy as np

from repro.nn import init
from repro.nn.functional import col2im, conv_windows, im2col, im2col_matmul, matmul_col2im
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import SeedLike, new_rng

#: accepted values for the REPRO_CONV_ENGINE override
CONV_ENGINES = ("auto", "im2col", "implicit")

#: minimum size of the would-be im2col column buffer before the implicit
#: engine takes over under "auto": below this the whole problem fits in cache
#: and the explicit unfold's single BLAS GEMM has the lowest dispatch
#: overhead; above it the k^2-sized column copy is pure memory traffic that
#: the implicit contraction avoids
_IMPLICIT_MIN_COLS_BYTES = 1 << 18


def conv_engine_override() -> str:
    """The process-wide conv engine override from ``REPRO_CONV_ENGINE``."""
    engine = os.environ.get("REPRO_CONV_ENGINE")  # repro-lint: disable=K104 -- a test and benchmark override, not a runtime knob
    engine = (engine or "auto").lower()
    if engine not in CONV_ENGINES:
        raise ValueError(
            f"REPRO_CONV_ENGINE must be one of {CONV_ENGINES}, got {engine!r}"
        )
    return engine


class Conv2d(Module):
    """2-D convolution over NCHW batches.

    ``groups > 1`` splits channels into groups convolved independently;
    ``groups == in_channels == out_channels`` is a depthwise convolution, which
    the MobileNet-style architecture uses.

    A forward whose backward computes the weight gradient keeps a reference
    to its input (or a view of it), not a copy, so a caller must not change
    the input in place between ``forward`` and ``backward``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"in_channels ({in_channels}) and out_channels ({out_channels}) "
                f"must both be divisible by groups ({groups})"
            )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.groups = int(groups)
        rng = new_rng(rng)
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels // groups, kernel_size, kernel_size),
                fan_in=fan_in,
                rng=rng,
            ),
            name="weight",
        )
        self.use_bias = bool(bias)
        if self.use_bias:
            self.bias = Parameter(init.zeros((out_channels,)), name="bias")

    # -- engine selection --------------------------------------------------
    def _select_engine(self, x: np.ndarray) -> str:
        """Pick the execution path for this input (see module docstring)."""
        if self.groups != 1:
            return "im2col"
        engine = conv_engine_override()
        low_precision = x.dtype == np.float32
        if (
            self.kernel_size == 1
            and self.padding == 0
            and (low_precision or engine == "implicit")
        ):
            return "pointwise"
        if engine != "auto":
            return engine
        if not low_precision:
            # float64 reference tier: bit-identity contract — keep the exact
            # historical GEMM shapes
            return "im2col"
        n, c, h, w = x.shape
        out_h = (h + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (w + 2 * self.padding - self.kernel_size) // self.stride + 1
        cols_bytes = (
            n * out_h * out_w * c * self.kernel_size * self.kernel_size * x.itemsize
        )
        return "implicit" if cols_bytes >= _IMPLICIT_MIN_COLS_BYTES else "im2col"

    # -- helpers -----------------------------------------------------------
    def _unfold_group(self, x: np.ndarray, group: int):
        cin_g = self.in_channels // self.groups
        xg = x if self.groups == 1 else x[:, group * cin_g : (group + 1) * cin_g]
        return im2col(xg, self.kernel_size, self.stride, self.padding)

    def _strided_input(self, x: np.ndarray) -> np.ndarray:
        """The input pixels a pointwise (k=1, p=0) conv actually reads."""
        if self.stride == 1:
            return x
        return x[:, :, :: self.stride, :: self.stride]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._grads = self._grad_params()
        self._input_shape = x.shape
        self._dtype = x.dtype
        engine = self._select_engine(x)
        self._engine = engine
        if engine == "pointwise":
            return self._forward_pointwise(x)
        if engine == "implicit":
            return self._forward_implicit(x)
        return self._forward_im2col(x)

    def _keeps_weight_operand(self) -> bool:
        """Whether this forward's backward computes the weight gradient, the
        one reader of the engine's operand (see the module docstring)."""
        return "weight" in (self._grads or ())

    def _forward_pointwise(self, x: np.ndarray) -> np.ndarray:
        # a 1x1 convolution is channel mixing: (C_out, C_in) @ (N, C_in, L)
        # without any unfold copy.  This orientation rounds differently than
        # the im2col GEMM, so the float64 tier never picks it under ``auto``.
        n = x.shape[0]
        xs = self._strided_input(x)
        out_h, out_w = xs.shape[2], xs.shape[3]
        x3 = xs.reshape(n, self.in_channels, out_h * out_w)
        self._pw_x3 = x3 if self._keeps_weight_operand() else None
        w2 = self.weight.data.reshape(self.out_channels, self.in_channels)
        merged = np.matmul(w2, x3).reshape(n, self.out_channels, out_h, out_w)
        if self.use_bias:
            merged = merged + self.bias.data[None, :, None, None]
        return merged

    def _forward_implicit(self, x: np.ndarray) -> np.ndarray:
        windows, out_h, out_w = conv_windows(
            x, self.kernel_size, self.stride, self.padding
        )
        self._windows = windows if self._keeps_weight_operand() else None
        merged = np.einsum(
            "nchwyx,ocyx->nohw", windows, self.weight.data, optimize=True
        )
        if self.use_bias:
            merged = merged + self.bias.data[None, :, None, None]
        return merged

    def _forward_im2col(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        cout_g = self.out_channels // self.groups
        # backward re-gathers the weight gradient's columns from the input
        self._x = x if self._keeps_weight_operand() else None
        if self.groups == 1:
            # fast path: no per-group list/concatenate round-trip, and the
            # columns unfold one image tile at a time
            w_mat = self.weight.data.reshape(self.out_channels, -1)
            merged, out_h, out_w = im2col_matmul(
                x, w_mat, self.kernel_size, self.stride, self.padding
            )
        else:
            outputs = []
            for g in range(self.groups):
                cols, out_h, out_w = self._unfold_group(x, g)
                wg = self.weight.data[g * cout_g : (g + 1) * cout_g]
                outputs.append(cols @ wg.reshape(cout_g, -1).T)
            # each output is (N*out_h*out_w, cout_g); stack along channel axis
            merged = np.concatenate(outputs, axis=1)
        merged = merged.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        if self.use_bias:
            merged = merged + self.bias.data[None, :, None, None]
        return merged

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grads = self._saved(getattr(self, "_grads", None))
        if "bias" in grads:
            self.bias.accumulate_grad(grad_output.sum(axis=(0, 2, 3)))
        if self._engine == "pointwise":
            return self._backward_pointwise(grad_output)
        if self._engine == "implicit":
            return self._backward_implicit(grad_output)
        return self._backward_im2col(grad_output)

    def _backward_pointwise(self, grad_output: np.ndarray) -> np.ndarray:
        n, _, out_h, out_w = grad_output.shape
        hw = out_h * out_w
        if self._pw_x3 is not None:
            # grad_weight core: (C_out, N*L) @ (N*L, C_in) — the same GEMM the
            # im2col path issues on its column matrix
            grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(n * hw, self.out_channels)
            x_cols = self._pw_x3.transpose(0, 2, 1).reshape(n * hw, self.in_channels)
            self.weight.accumulate_grad(
                (grad_flat.T @ x_cols).reshape(self.weight.data.shape)
            )
        w2 = self.weight.data.reshape(self.out_channels, self.in_channels)
        grad3 = np.matmul(
            w2.T, grad_output.reshape(n, self.out_channels, hw)
        )
        if self.stride == 1:
            grad_input = grad3.reshape(self._input_shape)
        else:
            # k=1 means every input pixel feeds at most one output pixel:
            # scatter without accumulation, skipped pixels stay zero
            grad_input = np.zeros(self._input_shape, dtype=grad3.dtype)
            grad_input[:, :, :: self.stride, :: self.stride] = grad3.reshape(
                n, self.in_channels, out_h, out_w
            )
        return np.asarray(grad_input, dtype=self._dtype)

    def _backward_implicit(self, grad_output: np.ndarray) -> np.ndarray:
        n, _, out_h, out_w = grad_output.shape
        if self._windows is not None:
            self.weight.accumulate_grad(
                np.einsum("nohw,nchwyx->ocyx", grad_output, self._windows, optimize=True)
            )
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(
            n * out_h * out_w, self.out_channels
        )
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_input = matmul_col2im(
            grad_flat, w_mat, self._input_shape, self.kernel_size, self.stride, self.padding
        )
        return np.asarray(grad_input, dtype=self._dtype)

    def _backward_im2col(self, grad_output: np.ndarray) -> np.ndarray:
        n, _, out_h, out_w = grad_output.shape
        cin_g = self.in_channels // self.groups
        cout_g = self.out_channels // self.groups
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, self.out_channels)
        x = self._x
        if self.groups == 1:
            w_mat = self.weight.data.reshape(self.out_channels, -1)
            if x is not None:
                # the whole-batch GEMM on re-gathered columns, freed at once
                self.weight.accumulate_grad(
                    (grad_flat.T @ self._unfold_group(x, 0)[0]).reshape(self.weight.data.shape)
                )
            # row tiles of grad_flat @ w_mat, each folded while cache-hot:
            # the bytes of col2im(grad_flat @ w_mat) without its full matrix
            grad_input = matmul_col2im(
                grad_flat, w_mat, self._input_shape, self.kernel_size, self.stride, self.padding
            )
            return np.asarray(grad_input, dtype=self._dtype)
        grad_input = np.empty(self._input_shape, dtype=self._dtype)
        grad_weight = None if x is None else np.empty_like(self.weight.data)
        group_input_shape = (n, cin_g, self._input_shape[2], self._input_shape[3])
        for g in range(self.groups):
            gout = grad_flat[:, g * cout_g : (g + 1) * cout_g]
            wg = self.weight.data[g * cout_g : (g + 1) * cout_g].reshape(cout_g, -1)
            if grad_weight is not None:
                grad_weight[g * cout_g : (g + 1) * cout_g] = (
                    gout.T @ self._unfold_group(x, g)[0]
                ).reshape(cout_g, cin_g, self.kernel_size, self.kernel_size)
            grad_cols = gout @ wg
            grad_input[:, g * cin_g : (g + 1) * cin_g] = col2im(
                grad_cols, group_input_shape, self.kernel_size, self.stride, self.padding
            )
        if grad_weight is not None:
            self.weight.accumulate_grad(grad_weight)
        return grad_input
