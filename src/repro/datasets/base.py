"""Dataset containers used throughout the library.

Images are stored as float arrays in ``[0, 1]`` with NCHW layout; labels are
integer class indices.  The container is deliberately simple: it is a value
object with convenience methods for splitting, subsampling and batching, which
is all the attacks, trainers and defenses need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_fraction, check_image_batch, check_labels


class ImageDataset:
    """An in-memory labelled image dataset.

    Parameters
    ----------
    images:
        Array of shape ``(N, C, H, W)`` with values in ``[0, 1]``.
    labels:
        Integer array of shape ``(N,)``.
    num_classes:
        Total number of classes; inferred from the labels when omitted.
    name:
        Human-readable dataset name (e.g. ``"cifar10"``); used in reports.
    """

    def __init__(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        num_classes: Optional[int] = None,
        name: str = "dataset",
    ) -> None:
        images = check_image_batch(images, "images")
        labels = check_labels(labels, name="labels")
        if images.shape[0] != labels.shape[0]:
            raise ValueError(
                f"images ({images.shape[0]}) and labels ({labels.shape[0]}) disagree on size"
            )
        self.images = np.clip(images.astype(np.float64), 0.0, 1.0)
        self.labels = labels
        inferred = int(labels.max()) + 1 if labels.size else 0
        self.num_classes = int(num_classes) if num_classes is not None else inferred
        if labels.size and int(labels.max()) >= self.num_classes:
            raise ValueError(
                f"labels exceed num_classes={self.num_classes}: max label {labels.max()}"
            )
        self.name = name

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return int(self.images.shape[0])

    def __getitem__(self, index) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return tuple(self.images.shape[1:])  # type: ignore[return-value]

    @property
    def image_size(self) -> int:
        return int(self.images.shape[2])

    def class_counts(self) -> np.ndarray:
        """Number of samples per class (length ``num_classes``)."""
        return np.bincount(self.labels, minlength=self.num_classes)

    # -- constructors ------------------------------------------------------
    def copy(self) -> "ImageDataset":
        return ImageDataset(
            self.images.copy(), self.labels.copy(), self.num_classes, self.name
        )

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "ImageDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return ImageDataset(
            self.images[indices],
            self.labels[indices],
            self.num_classes,
            name or self.name,
        )

    @staticmethod
    def concatenate(datasets: Sequence["ImageDataset"], name: Optional[str] = None) -> "ImageDataset":
        if not datasets:
            raise ValueError("cannot concatenate an empty list of datasets")
        num_classes = max(d.num_classes for d in datasets)
        images = np.concatenate([d.images for d in datasets], axis=0)
        labels = np.concatenate([d.labels for d in datasets], axis=0)
        return ImageDataset(images, labels, num_classes, name or datasets[0].name)

    # -- sampling ----------------------------------------------------------
    def shuffled(self, rng: SeedLike = None) -> "ImageDataset":
        rng = new_rng(rng)
        order = rng.permutation(len(self))
        return self.subset(order)

    def sample(self, count: int, rng: SeedLike = None, replace: bool = False) -> "ImageDataset":
        """Uniformly sample ``count`` items (without replacement by default)."""
        rng = new_rng(rng)
        if not replace and count > len(self):
            raise ValueError(
                f"cannot sample {count} items without replacement from {len(self)}"
            )
        indices = rng.choice(len(self), size=count, replace=replace)
        return self.subset(indices)

    def sample_fraction(self, fraction: float, rng: SeedLike = None) -> "ImageDataset":
        """Sample a class-stratified fraction of the dataset (at least 1 per class)."""
        check_fraction(fraction, "fraction")
        rng = new_rng(rng)
        chosen = []
        for cls in range(self.num_classes):
            cls_idx = np.flatnonzero(self.labels == cls)
            if cls_idx.size == 0:
                continue
            take = max(1, int(round(cls_idx.size * fraction)))
            chosen.append(rng.choice(cls_idx, size=min(take, cls_idx.size), replace=False))
        indices = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
        return self.subset(rng.permutation(indices))

    def split(self, first_fraction: float, rng: SeedLike = None) -> "DataSplit":
        """Random split into two datasets of sizes ``first_fraction`` / rest."""
        check_fraction(first_fraction, "first_fraction")
        rng = new_rng(rng)
        order = rng.permutation(len(self))
        cut = int(round(len(self) * first_fraction))
        return DataSplit(self.subset(order[:cut]), self.subset(order[cut:]))

    # -- batching ----------------------------------------------------------
    def batches(
        self,
        batch_size: int,
        shuffle: bool = True,
        rng: SeedLike = None,
        drop_last: bool = False,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(images, labels)`` mini-batches."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        order = np.arange(len(self))
        if shuffle:
            order = new_rng(rng).permutation(order)
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            if drop_last and idx.size < batch_size:
                break
            yield self.images[idx], self.labels[idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ImageDataset(name={self.name!r}, n={len(self)}, "
            f"classes={self.num_classes}, shape={self.image_shape})"
        )


@dataclass
class DataSplit:
    """A pair of datasets produced by :meth:`ImageDataset.split`."""

    first: ImageDataset
    second: ImageDataset

    def __iter__(self):
        return iter((self.first, self.second))
