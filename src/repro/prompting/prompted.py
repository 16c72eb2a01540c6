"""The prompted model ``f_T = O ∘ f_S ∘ V`` produced by visual prompting."""

from __future__ import annotations

import numpy as np

from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.prompting.output_mapping import LabelMapping
from repro.prompting.prompt import VisualPrompt


class PromptedClassifier:
    """A frozen source classifier adapted to a target task by a visual prompt.

    This is the object BPROM builds for every shadow model and for the
    suspicious model: its :meth:`predict_source_proba` output (source-class
    confidence vectors on query samples) is the meta-feature, and its
    :meth:`evaluate` accuracy on the target task is the class-subspace
    inconsistency signal.
    """

    def __init__(
        self,
        source_classifier: ImageClassifier,
        prompt: VisualPrompt,
        mapping: LabelMapping,
        name: str = "prompted",
    ) -> None:
        self.source_classifier = source_classifier
        self.prompt = prompt
        self.mapping = mapping
        self.name = name

    def predict_source_proba(self, target_images: np.ndarray) -> np.ndarray:
        """Source-class confidence vectors for target-domain inputs (black-box view)."""
        prompted = self.prompt.apply(target_images)
        return self.source_classifier.predict_proba(prompted)

    def predict_target_proba(self, target_images: np.ndarray) -> np.ndarray:
        """Target-class scores after output mapping."""
        return self.mapping.map_probabilities(self.predict_source_proba(target_images))

    def predict(self, target_images: np.ndarray) -> np.ndarray:
        """Hard target-class predictions."""
        return np.argmax(self.predict_target_proba(target_images), axis=1)

    def evaluate(self, target_dataset: ImageDataset) -> float:
        """Prompted-model accuracy on the target task (low accuracy => likely backdoor)."""
        if len(target_dataset) == 0:
            return 0.0
        predictions = self.predict(target_dataset.images)
        return float(np.mean(predictions == target_dataset.labels))

    def query_feature_vector(self, query_images: np.ndarray) -> np.ndarray:
        """Concatenated confidence vectors ``( f(x^1_Q) || ... || f(x^q_Q) )``."""
        return self.predict_source_proba(query_images).ravel()
