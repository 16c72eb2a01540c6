"""Shadow-model generation (Algorithm 1, lines 1-8)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import BackdoorAttack
from repro.attacks.registry import attack_defaults, build_attack
from repro.config import ExperimentProfile, FAST, resolve_precision
from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.models.registry import build_classifier
from repro.utils.rng import SeedLike, derive_seed, new_rng, normalize_seed


@dataclass
class ShadowModel:
    """A trained shadow classifier plus its ground-truth label.

    ``is_backdoored`` is ``True`` for shadow models trained on a poisoned copy
    of the reserved clean dataset, ``False`` for clean shadow models.
    """

    classifier: ImageClassifier
    is_backdoored: bool
    attack_name: Optional[str] = None
    target_class: Optional[int] = None
    clean_accuracy: float = float("nan")


class ShadowModelFactory:
    """Builds the defender's pool of clean and backdoored shadow models.

    Per the paper (Section 5.3), a *single* backdoor attack (BadNets by
    default) suffices to generate the backdoored shadow models, because BPROM
    relies on class-subspace inconsistency rather than on having "seen" the
    attack used against the suspicious model.  Diversity among backdoored
    shadow models comes from sampling different target classes, trigger seeds
    and parameter initialisations.

    ``precision`` ``None`` is the float64 reference tier.  The factory never
    reads the environment: ``REPRO_PRECISION`` reaches it only through
    :meth:`repro.config.RuntimeConfig.from_env`.
    """

    def __init__(
        self,
        profile: Optional[ExperimentProfile] = None,
        architecture: str = "resnet18",
        shadow_attack: str = "badnets",
        seed: SeedLike = 0,
        precision: Optional[str] = None,
    ) -> None:
        self.profile = profile or FAST
        self.architecture = architecture
        self.shadow_attack = shadow_attack
        self.seed = normalize_seed(seed)
        #: precision tier the shadows train in ("float64" reference tier or
        #: the opt-in "float32" tier); models are always *initialised* in
        #: float64 — same RNG draws — and cast before training, so the
        #: float64 tier is bit-identical to the pre-precision-split factory
        self.precision = resolve_precision(precision)

    def _enter_precision_tier(self, classifier) -> None:
        if self.precision == "float32":
            classifier.astype(np.float32)

    # -- individual builders ---------------------------------------------------
    def train_clean_shadow(
        self, reserved_clean: ImageDataset, index: int
    ) -> ShadowModel:
        """Train one clean shadow model with its own parameter initialisation."""
        seed = derive_seed(self.seed, "clean-shadow", index)
        classifier = build_classifier(
            self.architecture,
            reserved_clean.num_classes,
            image_size=reserved_clean.image_size,
            rng=seed,
            name=f"shadow-clean-{index}",
        )
        self._enter_precision_tier(classifier)
        classifier.fit(reserved_clean, self.profile.classifier, rng=seed + 1)
        return ShadowModel(
            classifier=classifier,
            is_backdoored=False,
            clean_accuracy=classifier.history.final_train_accuracy,
        )

    def train_backdoor_shadow(
        self,
        reserved_clean: ImageDataset,
        index: int,
        attack: Optional[BackdoorAttack] = None,
    ) -> ShadowModel:
        """Train one backdoored shadow model on a freshly poisoned copy of ``D_S``."""
        seed = derive_seed(self.seed, "backdoor-shadow", index)
        rng = new_rng(seed)
        if attack is None:
            target_class = int(rng.integers(0, reserved_clean.num_classes))
            attack = build_attack(
                self.shadow_attack, target_class=target_class, seed=seed
            )
        defaults = attack_defaults(attack.name)
        result = attack.poison(
            reserved_clean,
            poison_rate=defaults.poison_rate,
            cover_rate=defaults.cover_rate,
            rng=rng,
        )
        classifier = build_classifier(
            self.architecture,
            reserved_clean.num_classes,
            image_size=reserved_clean.image_size,
            rng=seed + 17,
            name=f"shadow-backdoor-{index}",
        )
        self._enter_precision_tier(classifier)
        classifier.fit(result.dataset, self.profile.classifier, rng=seed + 23)
        return ShadowModel(
            classifier=classifier,
            is_backdoored=True,
            attack_name=attack.name,
            target_class=attack.target_class,
            clean_accuracy=classifier.history.final_train_accuracy,
        )

    # -- the full pool -----------------------------------------------------------
    def build_pool(
        self,
        reserved_clean: ImageDataset,
        num_clean: Optional[int] = None,
        num_backdoor: Optional[int] = None,
        attacks: Optional[Sequence[BackdoorAttack]] = None,
        executor=None,
    ) -> List[ShadowModel]:
        """Train the full pool of shadow models (clean ones first).

        Each shadow model's seed is derived from its (kind, index) identity,
        so fanning the pool out over a :class:`repro.runtime.WorkerPool`
        produces exactly the same pool as the sequential loop.
        """
        num_clean = num_clean if num_clean is not None else self.profile.clean_shadow_models
        num_backdoor = (
            num_backdoor if num_backdoor is not None else self.profile.backdoor_shadow_models
        )
        specs: List[Tuple[str, int, Optional[BackdoorAttack]]] = [
            ("clean", index, None) for index in range(num_clean)
        ]
        for index in range(num_backdoor):
            attack = None
            if attacks is not None and len(attacks) > 0:
                attack = attacks[index % len(attacks)]
            specs.append(("backdoor", index, attack))
        if executor is None:
            return [self._train_one(reserved_clean, spec) for spec in specs]
        return executor.map(partial(_train_shadow_task, self, reserved_clean), specs)

    def _train_one(
        self,
        reserved_clean: ImageDataset,
        spec: Tuple[str, int, Optional[BackdoorAttack]],
    ) -> ShadowModel:
        kind, index, attack = spec
        if kind == "clean":
            return self.train_clean_shadow(reserved_clean, index)
        return self.train_backdoor_shadow(reserved_clean, index, attack=attack)


def _train_shadow_task(
    factory: ShadowModelFactory,
    reserved_clean: ImageDataset,
    spec: Tuple[str, int, Optional[BackdoorAttack]],
) -> ShadowModel:
    """Module-level task wrapper so process-backend executors can pickle it."""
    return factory._train_one(reserved_clean, spec)
