"""Stateless numerical routines shared by layers, losses and defenses."""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np


def as_float(x: np.ndarray) -> np.ndarray:
    """Coerce to a floating dtype, preserving float32 (the low-precision tier).

    Non-float inputs (int arrays, lists) promote to float64 exactly as the old
    hard cast did, so every pre-existing caller sees unchanged results.  This
    is the sanctioned coercion point for forward-path entries: everything else
    in ``repro/nn`` must follow the dtype this hands it.
    """
    x = np.asarray(x)
    if x.dtype == np.float32:
        return x
    return np.asarray(x, dtype=np.float64)  # repro-lint: disable=P103 -- the reference-tier coercion point itself: non-float32 input promotes to float64 by contract


#: backwards-compatible private alias (pre-dates the public spelling)
_as_float = as_float


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (dtype-preserving for floats)."""
    logits = as_float(logits)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis`` (dtype-preserving for floats)."""
    logits = as_float(logits)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Integer labels -> one-hot matrix of shape (N, num_classes)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): [{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (dtype-preserving for floats)."""
    x = as_float(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy given logits or probabilities of shape (N, K).

    Accepts any dtype numpy can ``argmax`` over; an empty batch (``N == 0``,
    any dtype — e.g. the ``(0, K)`` output of ``predict_logits`` on no
    images) returns ``0.0`` rather than propagating a NaN mean.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (N, K), got shape {logits.shape}")
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("logits and labels disagree on batch size")
    if logits.shape[0] == 0:
        return 0.0
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == labels))


# ---------------------------------------------------------------------------
# im2col / col2im — the workhorse behind Conv2d and the pooling layers.
#
# Shape/dtype contract (shared by the explicit im2col GEMM path and the
# implicit-GEMM engine in repro.nn.conv, which must stay interchangeable):
#
# * im2col(x: (N, C, H, W)) -> cols: (N*out_h*out_w, C*kernel*kernel), a
#   C-contiguous matrix with rows ordered image-major then row-major over the
#   output grid, and columns ordered channel-major then (ky, kx) row-major
#   over the kernel window.  It is a pure gather of input elements, so the
#   GEMM that consumes it sees the same operand whatever the input's strides.
#   conv_windows exposes the same placement tensor as a strided
#   (N, C, out_h, out_w, k, k) view without the column copy; the implicit
#   engine contracts over it, and the tests use it as the reference unfold.
# * col2im(cols) is the exact adjoint: scatter-add over the same ordering,
#   back to (N, C, H, W).
# * Both preserve the input dtype (float32 stays float32; the accumulator in
#   col2im is the cols dtype).  col2im's cache blocking is bitwise-safe (it
#   never reorders any per-element accumulation).  So is splitting a GEMM's
#   rows into image tiles with both operands laid out as in the whole GEMM:
#   each of im2col_matmul's float64 tiles, multiplied by a C-contiguous copy
#   of w_mat.T, equals its rows of the whole-batch ``cols @ w_mat.T`` at
#   every zoo conv geometry, where tiles against the transposed view do not;
#   and matmul_col2im's tiles of the NN GEMM ``grad_flat @ w_mat``, folded
#   tile by tile, equal ``col2im(grad_flat @ w_mat)`` in float64 and float32.
#   Both are measured properties of the BLAS kernel, swept byte for byte
#   (ARCHITECTURE.md gives the sweep) and pinned by tests/test_nn_layers.py;
#   the float64 conv runs both.  What re-orients a GEMM —
#   the implicit/pointwise conv engines' einsum and channel-mixing matmul —
#   changes BLAS kernel selection and rounds differently on some shapes;
#   those engines agree with the explicit form only to accumulation-rounding
#   tolerance and are reserved for the float32 tier (see repro.nn.conv).
# ---------------------------------------------------------------------------

#: byte budget per image tile of col2im's scatter-add and im2col_matmul's
#: gather; sized so one tile's working set (cols slice + padded slice) stays
#: within a typical per-core L2.  Folding the whole (N, C·k·k, L) buffer in
#: one pass streams it k^2 times through DRAM; per-image blocks keep the
#: scatter-add resident.
_COL2IM_BLOCK_BYTES = 1 << 19


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def _pad_zeros(x: np.ndarray, padding: int) -> np.ndarray:
    """A C-contiguous copy of an NCHW batch inside a zero border ``padding`` wide."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = x
    return out


def conv_windows(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Strided kernel-placement view over an NCHW batch (no data copied).

    Returns ``(windows, out_h, out_w)`` where ``windows`` is a zero-copy
    ``(N, C, out_h, out_w, kernel, kernel)`` view (over a zero-padded copy
    when ``padding > 0``) whose ``[n, c, i, j]`` block is the receptive field
    of output pixel ``(i, j)``.  The implicit-GEMM conv engine contracts over
    this view directly instead of materialising the k^2-times-larger column
    copy.  ``im2col`` gathers exactly
    ``windows.transpose(0, 2, 3, 1, 4, 5).reshape(N*out_h*out_w, C*k*k)``,
    which the tests keep as its reference.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = _pad_zeros(x, padding)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    return windows[:, :, ::stride, ::stride], out_h, out_w


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold an NCHW batch into a column matrix.

    Returns ``(cols, out_h, out_w)`` where ``cols`` is a C-contiguous
    ``(N * out_h * out_w, C * kernel * kernel)`` matrix — see the
    module-level contract above for the exact row/column ordering.

    The unfold is one ``np.take`` gather over a zero-padded C-contiguous copy
    of the input viewed as ``(N, C*H_pad*W_pad)``, through a flat per-image
    index built once per geometry (:func:`_im2col_index`): column ``(c, ky,
    kx)`` of output pixel ``(i, j)`` reads ``c*H_pad*W_pad + (i*stride +
    ky)*W_pad + j*stride + kx``.  Reshaping the :func:`conv_windows` view
    into columns copies the same elements in runs of only ``kernel``; the
    gather writes the column matrix in one pass.  The input dtype is
    preserved, so float32 megabatches stay float32 end to end.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    padded = _pad_zeros(x, padding) if padding > 0 else np.ascontiguousarray(x)
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    cols = np.take(
        padded.reshape(n, c * h_pad * w_pad),
        _im2col_index(c, h, w, kernel, stride, padding),
        axis=1,
        mode="clip",
    )
    return cols.reshape(n * out_h * out_w, c * kernel * kernel), out_h, out_w


@functools.lru_cache(maxsize=None)
def _im2col_index(c: int, h: int, w: int, kernel: int, stride: int, padding: int) -> np.ndarray:
    """The flat per-image gather index of :func:`im2col` for one geometry.

    Built once per geometry, and read-only because every caller shares it.
    """
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    window = np.arange(kernel)
    index = (
        (np.arange(out_h) * (stride * w_pad))[:, None, None, None, None]
        + (np.arange(out_w) * stride)[None, :, None, None, None]
        + (np.arange(c) * (h_pad * w_pad))[None, None, :, None, None]
        + (window * w_pad)[:, None]
        + window
    ).reshape(-1)
    index.flags.writeable = False
    return index


def im2col_matmul(
    x: np.ndarray, w_mat: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """``im2col(x)[0] @ w_mat.T`` without the whole batch's column matrix.

    ``w_mat`` is the ``(C_out, C*k*k)`` conv weight; returns ``(out, out_h,
    out_w)`` with ``out`` of shape ``(N*out_h*out_w, C_out)``.  A float64
    batch larger than one :func:`_col2im_block_images` tile is padded,
    gathered and multiplied one tile of images at a time through reused tile
    buffers, each tile an ``np.matmul`` against a C-contiguous copy of
    ``w_mat.T`` into its rows of ``out``: the whole-batch GEMM's bytes (see
    the contract above).  Any other batch runs the expression itself:
    against the copy, the whole batch rounds differently at batch 1 on some
    geometries, and float32 tiles round differently from the whole-batch
    sgemm (the float32 tier's ``auto`` engine never unfolds more than one
    tile anyway).
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    hw = out_h * out_w
    depth = c * kernel * kernel
    block = _col2im_block_images(hw * depth * x.itemsize)
    if n <= block or not x.dtype == w_mat.dtype == np.float64:
        cols, _, _ = im2col(x, kernel, stride, padding)
        return cols @ w_mat.T, out_h, out_w
    w_c = np.ascontiguousarray(w_mat.T)
    index = _im2col_index(c, h, w, kernel, stride, padding)
    # only the interior is ever written, so the zero border outlives every tile
    padded = np.zeros((block, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    cols = np.empty((block, hw * depth), dtype=x.dtype)
    out = np.empty((n * hw, w_mat.shape[0]), dtype=x.dtype)
    for start in range(0, n, block):
        stop = min(start + block, n)
        b = stop - start
        padded[:b, :, padding : padding + h, padding : padding + w] = x[start:stop]
        np.take(padded[:b].reshape(b, -1), index, axis=1, mode="clip", out=cols[:b])
        np.matmul(cols[:b].reshape(b * hw, depth), w_c, out=out[start * hw : stop * hw])
    return out, out_h, out_w


def _fold_block(padded, cols6, kernel: int, stride: int, out_h: int, out_w: int) -> None:
    """Scatter-add one image block of placement gradients into ``padded``.

    ``cols6`` is ``(B, C, k, k, out_h, out_w)``; per (ky, kx) offset the
    strided slice assignment is the adjoint of the ``conv_windows`` view.
    """
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols6[:, :, ky, kx, :, :]


def _col2im_block_images(per_image_bytes: int) -> int:
    """How many images one col2im scatter-add tile should cover."""
    return max(1, _COL2IM_BLOCK_BYTES // max(per_image_bytes, 1))


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a column matrix back into an NCHW gradient (adjoint of :func:`im2col`).

    The k^2-offset scatter-add is cache-blocked over images: per-image folds
    are independent, so tiling the batch axis keeps each tile's cols slice
    and output slice L2-resident instead of streaming the whole k^2-sized
    buffer through DRAM once per kernel offset.  Per-element accumulation
    order over (ky, kx) is unchanged, so the result is bitwise identical to
    the unblocked fold.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cols6 = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    block = _col2im_block_images(out_h * out_w * c * kernel * kernel * cols.itemsize)
    for start in range(0, n, block):
        _fold_block(
            padded[start : start + block],
            cols6[start : start + block],
            kernel,
            stride,
            out_h,
            out_w,
        )
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def matmul_col2im(
    grad_flat: np.ndarray,
    w_mat: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fused ``col2im(grad_flat @ w_mat)`` without the full column buffer.

    ``grad_flat`` is ``(N*out_h*out_w, C_out)`` (image-major rows, like
    im2col) and ``w_mat`` is ``(C_out, C*k*k)``; the result is the conv
    grad-input of shape ``input_shape``.  Each image tile runs its slice of
    the GEMM and immediately folds the product while it is cache-hot, so the
    ``(N*out_h*out_w, C*k*k)`` intermediate never exists in full.  The tiles
    are row blocks of the same NN GEMM, and the fold adds in col2im's order,
    so the result is the unfused two-step form's bytes (swept at every
    ``groups == 1`` zoo geometry, float64 and float32): it backs the input
    gradient of the implicit engine and of the ungrouped im2col engine,
    float64 reference tier included.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    hw = out_h * out_w
    # the product's dtype, as col2im accumulates in
    dtype = np.result_type(grad_flat, w_mat)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dtype)
    block = _col2im_block_images(hw * c * kernel * kernel * dtype.itemsize)
    for start in range(0, n, block):
        stop = min(start + block, n)
        grad_cols = grad_flat[start * hw : stop * hw] @ w_mat
        cols6 = grad_cols.reshape(
            stop - start, out_h, out_w, c, kernel, kernel
        ).transpose(0, 3, 4, 5, 1, 2)
        _fold_block(padded[start:stop], cols6, kernel, stride, out_h, out_w)
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``."""
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    # norm of per-array norms == global norm, computed in two vectorised calls
    # instead of a Python generator of per-array floats
    total = float(np.linalg.norm([np.linalg.norm(g.ravel()) for g in grads]))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
