"""Meta-model training (Algorithm 1, lines 13-26).

The meta-feature of a (prompted) model is the concatenation of its confidence
vectors over the query set ``D_Q``.  With only a handful of shadow models the
meta-training set would be tiny, so — as an explicitly documented departure
from the paper made necessary by the scaled-down substrate — each shadow model
contributes several feature vectors built from different random query subsets
(``augmentation`` below).  At detection time the suspicious model's score is
averaged over the same number of query subsets, which also makes the decision
less sensitive to any single query sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.datasets.base import ImageDataset
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegression
from repro.prompting.prompted import PromptedClassifier
from repro.utils.rng import SeedLike, new_rng


@dataclass
class MetaDataset:
    """The meta-training set ``D_meta``: one row per (shadow model, query subset)."""

    features: np.ndarray
    labels: np.ndarray  # 1 = backdoored, 0 = clean
    query_indices: np.ndarray  # (rows, q) indices into the query pool


class MetaClassifier:
    """Binary classifier over concatenated prompted confidence vectors."""

    def __init__(
        self,
        query_samples: int = 8,
        num_trees: int = 100,
        augmentation: int = 8,
        classifier_kind: str = "random_forest",
        rng: SeedLike = None,
    ) -> None:
        if query_samples <= 0:
            raise ValueError("query_samples must be positive")
        if augmentation <= 0:
            raise ValueError("augmentation must be positive")
        self.query_samples = int(query_samples)
        self.num_trees = int(num_trees)
        self.augmentation = int(augmentation)
        self.classifier_kind = classifier_kind
        self._rng = new_rng(rng)
        self.query_pool: Optional[ImageDataset] = None
        self._query_subsets: Optional[np.ndarray] = None
        self._model = None

    # -- query handling ----------------------------------------------------------
    def set_query_pool(self, query_pool: ImageDataset) -> None:
        """Fix the pool of candidate query images (``D_Q`` is drawn from here)."""
        if len(query_pool) < self.query_samples:
            raise ValueError(
                f"query pool has {len(query_pool)} samples but {self.query_samples} "
                "query samples were requested"
            )
        self.query_pool = query_pool
        subsets = [
            self._rng.choice(len(query_pool), size=self.query_samples, replace=False)
            for _ in range(self.augmentation)
        ]
        self._query_subsets = np.stack(subsets)

    def _require_queries(self) -> np.ndarray:
        if self.query_pool is None or self._query_subsets is None:
            raise RuntimeError("set_query_pool must be called before building features")
        return self._query_subsets

    def feature_rows(self, prompted: PromptedClassifier) -> np.ndarray:
        """All augmented feature vectors for one prompted model, shape (aug, q*K_S)."""
        probabilities = prompted.predict_source_proba(self.query_pool.images)
        return self.feature_rows_from_source_proba(probabilities)

    def feature_rows_from_source_proba(self, probabilities: np.ndarray) -> np.ndarray:
        """Feature rows from precomputed pool confidence vectors.

        Lets callers that already hold the prompted model's confidence vectors
        over the whole query pool (e.g. ``BpromDetector.inspect``, which also
        needs them for the prompted-accuracy signal) build meta-features
        without querying the model a second time.
        """
        subsets = self._require_queries()
        rows = [probabilities[subset].ravel() for subset in subsets]
        return np.stack(rows)

    # -- training ------------------------------------------------------------------
    def build_meta_dataset(
        self,
        prompted_shadows: Sequence[PromptedClassifier],
        shadow_labels: Sequence[int],
    ) -> MetaDataset:
        """Construct ``D_meta`` from the prompted shadow models."""
        if len(prompted_shadows) != len(shadow_labels):
            raise ValueError("prompted_shadows and shadow_labels disagree on length")
        subsets = self._require_queries()
        features: List[np.ndarray] = []
        labels: List[int] = []
        for prompted, label in zip(prompted_shadows, shadow_labels):
            rows = self.feature_rows(prompted)
            features.append(rows)
            labels.extend([int(label)] * rows.shape[0])
        return MetaDataset(
            features=np.concatenate(features, axis=0),
            labels=np.asarray(labels, dtype=np.int64),
            query_indices=subsets,
        )

    def fit(
        self,
        prompted_shadows: Sequence[PromptedClassifier],
        shadow_labels: Sequence[int],
    ) -> "MetaClassifier":
        """Train the meta-classifier ``f_meta`` on the prompted shadow models."""
        meta = self.build_meta_dataset(prompted_shadows, shadow_labels)
        if self.classifier_kind == "random_forest":
            self._model = RandomForestClassifier(
                n_estimators=self.num_trees, max_depth=6, rng=self._rng
            )
        elif self.classifier_kind == "logistic":
            self._model = LogisticRegression(rng=self._rng)
        else:
            raise ValueError(f"unknown classifier kind {self.classifier_kind!r}")
        self._model.fit(meta.features, meta.labels)
        return self

    # -- inference -------------------------------------------------------------------
    def backdoor_score(self, prompted: PromptedClassifier) -> float:
        """Probability-like score that the prompted model hides a backdoor."""
        rows = self.feature_rows(prompted)
        return self.score_feature_rows(rows)

    def score_from_source_proba(self, probabilities: np.ndarray) -> float:
        """:meth:`backdoor_score` from precomputed pool confidence vectors."""
        return self.score_feature_rows(self.feature_rows_from_source_proba(probabilities))

    def score_feature_rows(self, rows: np.ndarray) -> float:
        """Average meta-classifier score over a model's augmented feature rows."""
        if self._model is None:
            raise RuntimeError("meta-classifier has not been fitted")
        if isinstance(self._model, RandomForestClassifier):
            probabilities = self._model.predict_proba(rows)
            positive = probabilities[:, 1] if probabilities.shape[1] > 1 else probabilities[:, 0]
        else:
            positive = self._model.predict_proba(rows)
        return float(np.mean(positive))

    def predict(self, prompted: PromptedClassifier, threshold: float = 0.5) -> int:
        """1 if the model is predicted backdoored, 0 if clean."""
        return int(self.backdoor_score(prompted) >= threshold)

    # -- persistence ------------------------------------------------------------------
    def get_state(self):
        """``(arrays, info)`` pair fully describing a fitted meta-classifier.

        ``arrays`` is npz-friendly (query pool, query subsets and the fitted
        model's numeric state); ``info`` is JSON-friendly configuration.  The
        RNG is intentionally not captured: a restored meta-classifier serves
        scores deterministically but is not meant to be re-fitted.
        """
        if self._model is None:
            raise RuntimeError("only a fitted meta-classifier can be serialised")
        queries = self._require_queries()
        arrays = {
            "query_subsets": queries,
            "query_images": self.query_pool.images,
            "query_labels": self.query_pool.labels,
        }
        for key, value in self._model.get_state().items():
            arrays[f"model.{key}"] = value
        info = {
            "query_samples": self.query_samples,
            "num_trees": self.num_trees,
            "augmentation": self.augmentation,
            "classifier_kind": self.classifier_kind,
            "query_num_classes": self.query_pool.num_classes,
            "query_name": self.query_pool.name,
        }
        return arrays, info

    @classmethod
    def from_state(cls, info, arrays) -> "MetaClassifier":
        """Rebuild a fitted meta-classifier from :meth:`get_state` output."""
        meta = cls(
            query_samples=info["query_samples"],
            num_trees=info["num_trees"],
            augmentation=info["augmentation"],
            classifier_kind=info["classifier_kind"],
            rng=0,
        )
        meta.query_pool = ImageDataset(
            arrays["query_images"],
            arrays["query_labels"],
            num_classes=info["query_num_classes"],
            name=info["query_name"],
        )
        meta._query_subsets = np.asarray(arrays["query_subsets"], dtype=np.int64)
        model_state = {
            key.split(".", 1)[1]: value
            for key, value in arrays.items()
            if key.startswith("model.")
        }
        if info["classifier_kind"] == "random_forest":
            meta._model = RandomForestClassifier.from_state(model_state)
        else:
            meta._model = LogisticRegression.from_state(model_state)
        return meta
