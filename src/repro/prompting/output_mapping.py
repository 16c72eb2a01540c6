"""Output label mapping ``O(. | w)`` between source and target classes.

The paper omits the trainable output-mapping step (Section 3, step 3), which
corresponds to the identity mapping used here by default: target class ``i``
is read off source logit ``i``.  A frequency-based mapping (assign each target
class to the source class its training samples most often land on) is provided
because it is the standard fallback when the target task has more classes than
the source task — and for the CIFAR-100-as-``D_S`` experiment (Table 21).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class LabelMapping:
    """Maps source-class confidence vectors to target-class scores."""

    def __init__(self, num_source_classes: int, num_target_classes: int, mode: str = "identity") -> None:
        if num_source_classes <= 0 or num_target_classes <= 0:
            raise ValueError("class counts must be positive")
        if mode not in ("identity", "frequency"):
            raise ValueError(f"unknown mapping mode {mode!r}")
        self.num_source_classes = int(num_source_classes)
        self.num_target_classes = int(num_target_classes)
        self.mode = mode
        #: assignment[target_class] = source_class
        self.assignment: np.ndarray = np.arange(num_target_classes) % num_source_classes

    def fit(self, source_probabilities: np.ndarray, target_labels: np.ndarray) -> "LabelMapping":
        """Learn a frequency-based assignment from prompted training predictions."""
        if self.mode == "identity":
            return self
        source_probabilities = np.asarray(source_probabilities, dtype=np.float64)
        target_labels = np.asarray(target_labels, dtype=np.int64)
        predictions = np.argmax(source_probabilities, axis=1)
        assignment = np.arange(self.num_target_classes) % self.num_source_classes
        for target_class in range(self.num_target_classes):
            mask = target_labels == target_class
            if not np.any(mask):
                continue
            counts = np.bincount(predictions[mask], minlength=self.num_source_classes)
            assignment[target_class] = int(np.argmax(counts))
        self.assignment = assignment
        return self

    def map_probabilities(self, source_probabilities: np.ndarray) -> np.ndarray:
        """Target-class scores obtained by reading the assigned source entries."""
        source_probabilities = np.asarray(source_probabilities, dtype=np.float64)
        if source_probabilities.shape[1] != self.num_source_classes:
            raise ValueError(
                f"expected {self.num_source_classes} source classes, got "
                f"{source_probabilities.shape[1]}"
            )
        return source_probabilities[:, self.assignment]

    def target_labels_as_source(self, target_labels: np.ndarray) -> Optional[np.ndarray]:
        """Source-class labels used as the training target for prompt optimisation.

        With the identity mapping this is simply the target label (modulo the
        source class count); with the frequency mapping it is the assigned
        source class.
        """
        target_labels = np.asarray(target_labels, dtype=np.int64)
        return self.assignment[target_labels % self.num_target_classes]
