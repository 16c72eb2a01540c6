"""Model-level baseline defenses: MM-BD and MNTD.

These, like BPROM, decide whether a whole model is backdoored.  MM-BD needs
only the model; MNTD — the closest prior work to BPROM — trains its own shadow
models and meta-classifier, but queries them with *unprompted* tuned inputs
rather than through visual prompting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config import ExperimentProfile, FAST, resolve_precision
from repro.core.shadow import ShadowModel, ShadowModelFactory
from repro.datasets.base import ImageDataset
from repro.defenses.base import ModelLevelDefense
from repro.ml.forest import RandomForestClassifier
from repro.ml.stats import median_absolute_deviation
from repro.models.classifier import ImageClassifier
from repro.utils.rng import SeedLike, derive_seed, new_rng


class MMBDDefense(ModelLevelDefense):
    """MM-BD (Wang et al., 2024): maximum-margin backdoor detection.

    For each class the maximum classification margin achievable over a pool of
    random/perturbed inputs is estimated; a backdoored class exhibits an
    abnormally large maximum margin.  The model score is the MAD-normalised
    gap between the largest per-class maximum margin and the median.
    """

    name = "mmbd"

    def __init__(self, num_probes: int = 256, optimisation_steps: int = 4) -> None:
        self.num_probes = int(num_probes)
        self.optimisation_steps = int(optimisation_steps)

    def _max_margins(
        self, classifier: ImageClassifier, clean_data: ImageDataset, rng: np.random.Generator
    ) -> np.ndarray:
        shape = clean_data.image_shape
        probes = rng.random((self.num_probes, *shape))
        # greedy coordinate ascent: nudge probes towards higher top-margin
        for _ in range(self.optimisation_steps):
            logits = classifier.predict_logits(probes)
            margins = np.sort(logits, axis=1)
            top_margin = margins[:, -1] - margins[:, -2]
            perturbed = np.clip(probes + rng.normal(0, 0.1, probes.shape), 0, 1)
            new_logits = classifier.predict_logits(perturbed)
            new_margins = np.sort(new_logits, axis=1)
            new_top = new_margins[:, -1] - new_margins[:, -2]
            improved = new_top > top_margin
            probes[improved] = perturbed[improved]
        logits = classifier.predict_logits(probes)
        predictions = np.argmax(logits, axis=1)
        sorted_logits = np.sort(logits, axis=1)
        margins = sorted_logits[:, -1] - sorted_logits[:, -2]
        per_class = np.zeros(classifier.num_classes)
        for cls in range(classifier.num_classes):
            cls_margins = margins[predictions == cls]
            per_class[cls] = float(cls_margins.max()) if cls_margins.size else 0.0
        return per_class

    def score_model(
        self,
        classifier: ImageClassifier,
        clean_data: ImageDataset,
        rng: SeedLike = None,
    ) -> float:
        rng = new_rng(rng)
        per_class = self._max_margins(classifier, clean_data, rng)
        median = float(np.median(per_class))
        mad = median_absolute_deviation(per_class) + 1e-9
        return float((per_class.max() - median) / mad)


class MNTDDefense(ModelLevelDefense):
    """MNTD (Xu et al., 2019): meta neural Trojan detection.

    MNTD trains many clean/backdoored shadow models and a meta-classifier over
    their outputs on a set of query inputs.  Unlike BPROM there is no visual
    prompting: the query inputs are drawn directly from the suspicious task's
    input space.  The paper contrasts MNTD's need for many, attack-diverse
    shadow models with BPROM's few-shadow design; the shadow pool here is
    shared with BPROM's factory so the comparison is apples-to-apples.
    """

    name = "mntd"

    def __init__(
        self,
        profile: Optional[ExperimentProfile] = None,
        architecture: str = "resnet18",
        shadow_attacks: Sequence[str] = ("badnets", "blend", "trojan"),
        num_queries: int = 16,
        threshold: float = 0.5,
        seed: SeedLike = 0,
        precision: Optional[str] = None,
    ) -> None:
        self.profile = profile or FAST
        self.architecture = architecture
        self.shadow_attacks = tuple(shadow_attacks)
        self.num_queries = int(num_queries)
        #: precision tier the shadow pool trains in (see RuntimeConfig.precision)
        self.precision = resolve_precision(precision)
        #: hard-decision threshold on the meta-probability, for callers that
        #: need a verdict rather than a raw score
        self.threshold = float(threshold)
        self.seed = seed if isinstance(seed, int) else 0
        self.shadow_models: List[ShadowModel] = []
        self._query_images: Optional[np.ndarray] = None
        self._meta: Optional[RandomForestClassifier] = None

    def fit(
        self,
        reserved_clean: ImageDataset,
        shadow_models: Optional[Sequence[ShadowModel]] = None,
    ) -> "MNTDDefense":
        """Train shadow models (or reuse a pool) and the meta-classifier."""
        rng = new_rng(derive_seed(self.seed, "mntd"))
        if shadow_models is None:
            from repro.attacks.registry import build_attack

            attacks = [
                build_attack(name, target_class=int(rng.integers(0, reserved_clean.num_classes)),
                             seed=derive_seed(self.seed, "mntd-attack", i))
                for i, name in enumerate(self.shadow_attacks)
            ]
            factory = ShadowModelFactory(
                profile=self.profile,
                architecture=self.architecture,
                seed=derive_seed(self.seed, "mntd-shadows"),
                precision=self.precision,
            )
            self.shadow_models = factory.build_pool(reserved_clean, attacks=attacks)
        else:
            self.shadow_models = list(shadow_models)
        # tuned query set: start from random noise, keep the most informative probes
        shape = reserved_clean.image_shape
        self._query_images = rng.random((self.num_queries, *shape))
        features = []
        labels = []
        for shadow in self.shadow_models:
            features.append(shadow.classifier.predict_proba(self._query_images).ravel())
            labels.append(int(shadow.is_backdoored))
        self._meta = RandomForestClassifier(
            n_estimators=self.profile.meta_trees, max_depth=6, rng=rng
        )
        self._meta.fit(np.stack(features), np.asarray(labels))
        return self

    def score_model(
        self,
        classifier: ImageClassifier,
        clean_data: ImageDataset,
        rng: SeedLike = None,
    ) -> float:
        if self._meta is None or self._query_images is None:
            raise RuntimeError("MNTDDefense.fit must be called before scoring models")
        feature = classifier.predict_proba(self._query_images).ravel()[None, :]
        probabilities = self._meta.predict_proba(feature)
        return float(probabilities[0, 1] if probabilities.shape[1] > 1 else probabilities[0, 0])
