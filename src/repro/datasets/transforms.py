"""Image transforms: resizing, normalisation and light augmentation.

All transforms operate on NCHW batches with values in ``[0, 1]`` and are pure
functions (they return new arrays).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_image_batch


def resize_batch(images: np.ndarray, size: int) -> np.ndarray:
    """Bilinear resize of an NCHW batch to ``size`` x ``size``.

    A plain vectorised bilinear interpolation; adequate for the small images
    used in this reproduction and dependency-free.
    """
    images = check_image_batch(images, "images")
    n, c, h, w = images.shape
    if h == size and w == size:
        return images.copy()
    # sample positions in the source image for each output pixel (align corners=False)
    ys = (np.arange(size) + 0.5) * (h / size) - 0.5
    xs = (np.arange(size) + 0.5) * (w / size) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = (ys - y0)[None, None, :, None]
    wx = (xs - x0)[None, None, None, :]
    top = images[:, :, y0][:, :, :, x0] * (1 - wx) + images[:, :, y0][:, :, :, x1] * wx
    bottom = images[:, :, y1][:, :, :, x0] * (1 - wx) + images[:, :, y1][:, :, :, x1] * wx
    return top * (1 - wy) + bottom * wy


def normalize(images: np.ndarray, mean: float = 0.5, std: float = 0.5) -> np.ndarray:
    """Shift/scale pixel values; used when a model expects centred inputs."""
    return (check_image_batch(images) - mean) / std


def to_grayscale(images: np.ndarray) -> np.ndarray:
    """Collapse an RGB batch to its luminance, replicated over 3 channels."""
    images = check_image_batch(images)
    if images.shape[1] == 1:
        return np.repeat(images, 3, axis=1)
    weights = np.array([0.299, 0.587, 0.114])[: images.shape[1]]
    weights = weights / weights.sum()
    gray = np.tensordot(weights, images, axes=([0], [1]))[:, None]
    return np.repeat(gray, 3, axis=1)


def random_horizontal_flip(
    images: np.ndarray, probability: float = 0.5, rng: SeedLike = None
) -> np.ndarray:
    """Flip a random subset of the batch left-right."""
    images = check_image_batch(images).copy()
    rng = new_rng(rng)
    flips = rng.random(images.shape[0]) < probability
    images[flips] = images[flips][:, :, :, ::-1]
    return images


def random_shift(
    images: np.ndarray, max_shift: int = 2, rng: SeedLike = None
) -> np.ndarray:
    """Randomly translate each image by up to ``max_shift`` pixels (zero padded)."""
    images = check_image_batch(images)
    rng = new_rng(rng)
    n, c, h, w = images.shape
    out = np.zeros_like(images)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    for i, (dy, dx) in enumerate(shifts):
        src_y = slice(max(0, -dy), min(h, h - dy))
        src_x = slice(max(0, -dx), min(w, w - dx))
        dst_y = slice(max(0, dy), min(h, h + dy))
        dst_x = slice(max(0, dx), min(w, w + dx))
        out[i, :, dst_y, dst_x] = images[i, :, src_y, src_x]
    return out


def pad_to(images: np.ndarray, size: int, fill: float = 0.0) -> np.ndarray:
    """Centre-pad an NCHW batch to ``size`` x ``size`` with a constant fill value."""
    images = check_image_batch(images)
    n, c, h, w = images.shape
    if h > size or w > size:
        raise ValueError(f"cannot pad images of size {h}x{w} to smaller size {size}")
    out = np.full((n, c, size, size), fill, dtype=np.float64)
    top = (size - h) // 2
    left = (size - w) // 2
    out[:, :, top : top + h, left : left + w] = images
    return out
