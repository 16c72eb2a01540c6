"""Shadow-model generation (Algorithm 1, lines 1-8)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import BackdoorAttack
from repro.attacks.registry import attack_defaults, build_attack
from repro.config import (
    SHADOW_TRAINING_MODES,
    ExperimentProfile,
    FAST,
    resolve_precision,
)
from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.models.registry import architecture_family, build_classifier
from repro.nn.stacked import UnstackableModelError, fit_stacked
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


@dataclass
class _PreparedShadow:
    """An initialised-but-untrained shadow: classifier, data and fit seed.

    The preparation step (seed derivation, parameter init, poisoning) is
    shared verbatim between the sequential and stacked training paths, which
    is what keeps the two pools — and therefore the artifact-store cache keys
    derived from them — interchangeable.
    """

    classifier: ImageClassifier
    dataset: ImageDataset
    fit_seed: int
    is_backdoored: bool
    attack_name: Optional[str] = None
    target_class: Optional[int] = None

    def into_shadow_model(self) -> ShadowModel:
        return ShadowModel(
            classifier=self.classifier,
            is_backdoored=self.is_backdoored,
            attack_name=self.attack_name,
            target_class=self.target_class,
            clean_accuracy=self.classifier.history.final_train_accuracy,
        )


class ShadowModelFactory:
    """Builds the defender's pool of clean and backdoored shadow models.

    Per the paper (Section 5.3), a *single* backdoor attack (BadNets by
    default) suffices to generate the backdoored shadow models, because BPROM
    relies on class-subspace inconsistency rather than on having "seen" the
    attack used against the suspicious model.  Diversity among backdoored
    shadow models comes from sampling different target classes, trigger seeds
    and parameter initialisations.

    ``training_mode`` selects how :meth:`build_pool` trains the pool:
    ``"stacked"`` lifts the K same-architecture shadows into one model-axis
    computation (:mod:`repro.nn.stacked`), ``"sequential"`` trains them one by
    one, and ``"auto"``/``None`` applies a measured per-family policy: stacking
    fuses Python/numpy dispatch overhead, which dominates the transformer
    zoo's many small token-space ops (1.2-4x pools), but K-fold-inflates the
    cache working set of the CNN/MLP pools, whose time is spent in
    memory-bound im2col/col2im and optimiser sweeps — those stay sequential
    unless explicitly forced.  Per-model RNG streams for initialisation,
    poisoning and shuffle order are identical in both modes, so the resulting
    pools — and the artifact-store keys derived from them — are
    interchangeable.

    ``precision`` ``None`` is the float64 reference tier.  Neither knob reads
    the environment: ``REPRO_SHADOW_TRAINING`` and ``REPRO_PRECISION`` reach
    a factory only through :meth:`repro.config.RuntimeConfig.from_env`.
    """

    def __init__(
        self,
        profile: Optional[ExperimentProfile] = None,
        architecture: str = "resnet18",
        shadow_attack: str = "badnets",
        seed: SeedLike = 0,
        training_mode: Optional[str] = None,
        precision: Optional[str] = None,
    ) -> None:
        self.profile = profile or FAST
        self.architecture = architecture
        self.shadow_attack = shadow_attack
        self.seed = normalize_seed(seed)
        self.training_mode = training_mode
        #: precision tier the shadows train in ("float64" reference tier or
        #: the opt-in "float32" tier); models are always *initialised* in
        #: float64 — same RNG draws — and cast before training, so the
        #: float64 tier is bit-identical to the pre-precision-split factory
        self.precision = resolve_precision(precision)

    def _enter_precision_tier(self, classifier) -> None:
        if self.precision == "float32":
            classifier.astype(np.float32)

    def _resolve_training_mode(self) -> Tuple[str, bool]:
        """Resolved ``(mode, from_auto)`` — ``from_auto`` marks a policy pick.

        An explicit ``"stacked"``/``"sequential"`` wins; ``None`` and
        ``"auto"`` apply the per-family policy (stack transformer pools, train
        CNN/MLP pools sequentially — see the class docstring for the measured
        rationale).
        """
        mode = "auto" if self.training_mode is None else str(self.training_mode).lower()
        if mode not in SHADOW_TRAINING_MODES:
            raise ValueError(
                f"unknown shadow training mode {mode!r}; "
                f"available: {SHADOW_TRAINING_MODES}"
            )
        if mode == "auto":
            family = architecture_family(self.architecture)
            return ("stacked" if family == "transformer" else "sequential"), True
        return mode, False

    def resolve_training_mode(self) -> str:
        """Collapse ``training_mode`` to a concrete mode."""
        return self._resolve_training_mode()[0]

    # -- spec preparation (shared by both training paths) -----------------------
    def _prepare_clean(self, reserved_clean: ImageDataset, index: int) -> _PreparedShadow:
        seed = derive_seed(self.seed, "clean-shadow", index)
        classifier = build_classifier(
            self.architecture,
            reserved_clean.num_classes,
            image_size=reserved_clean.image_size,
            rng=seed,
            name=f"shadow-clean-{index}",
        )
        self._enter_precision_tier(classifier)
        return _PreparedShadow(
            classifier=classifier,
            dataset=reserved_clean,
            fit_seed=seed + 1,
            is_backdoored=False,
        )

    def _prepare_backdoor(
        self,
        reserved_clean: ImageDataset,
        index: int,
        attack: Optional[BackdoorAttack] = None,
    ) -> _PreparedShadow:
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
        return _PreparedShadow(
            classifier=classifier,
            dataset=result.dataset,
            fit_seed=seed + 23,
            is_backdoored=True,
            attack_name=attack.name,
            target_class=attack.target_class,
        )

    def _prepare(
        self,
        reserved_clean: ImageDataset,
        spec: Tuple[str, int, Optional[BackdoorAttack]],
    ) -> _PreparedShadow:
        kind, index, attack = spec
        if kind == "clean":
            return self._prepare_clean(reserved_clean, index)
        return self._prepare_backdoor(reserved_clean, index, attack=attack)

    # -- individual builders ---------------------------------------------------
    def train_clean_shadow(
        self, reserved_clean: ImageDataset, index: int
    ) -> ShadowModel:
        """Train one clean shadow model with its own parameter initialisation."""
        prepared = self._prepare_clean(reserved_clean, index)
        prepared.classifier.fit(
            prepared.dataset, self.profile.classifier, rng=prepared.fit_seed
        )
        return prepared.into_shadow_model()

    def train_backdoor_shadow(
        self,
        reserved_clean: ImageDataset,
        index: int,
        attack: Optional[BackdoorAttack] = None,
    ) -> ShadowModel:
        """Train one backdoored shadow model on a freshly poisoned copy of ``D_S``."""
        prepared = self._prepare_backdoor(reserved_clean, index, attack=attack)
        prepared.classifier.fit(
            prepared.dataset, self.profile.classifier, rng=prepared.fit_seed
        )
        return prepared.into_shadow_model()

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
        produces exactly the same pool as the sequential loop.  An explicit
        ``"stacked"`` mode trains the whole pool as one model-axis
        computation instead (the executor is bypassed — there is only one
        task); under ``"auto"`` a genuinely parallel executor takes
        precedence over stacking, since multi-worker fan-out parallelises
        every pool while the single-process stacked engine only fuses
        dispatch overhead.  Pools the stacked engine cannot lift fall back to
        per-model training (on the executor when one is supplied).
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
        mode, from_auto = self._resolve_training_mode()
        parallel_executor = executor is not None and getattr(executor, "parallel", False)
        use_stacked = mode == "stacked" and len(specs) >= 2
        if use_stacked and from_auto and parallel_executor:
            use_stacked = False
        if use_stacked:
            return self._build_pool_stacked(reserved_clean, specs, executor=executor)
        if executor is None:
            return [self._train_one(reserved_clean, spec) for spec in specs]
        return executor.map(partial(_train_shadow_task, self, reserved_clean), specs)

    def _build_pool_stacked(
        self,
        reserved_clean: ImageDataset,
        specs: Sequence[Tuple[str, int, Optional[BackdoorAttack]]],
        executor=None,
    ) -> List[ShadowModel]:
        """Train all shadows simultaneously along a model axis.

        Preparation (init seeds, poisoning) is byte-identical to the
        sequential path; only the training loop is fused.  Pools the stacked
        engine cannot lift (heterogeneous or unsupported layers) train the
        already-prepared shadows per model instead — fanned out over
        ``executor`` when one is supplied — preserving the exact sequential
        result.
        """
        prepared = [self._prepare(reserved_clean, spec) for spec in specs]
        try:
            fit_stacked(
                [p.classifier for p in prepared],
                [p.dataset for p in prepared],
                self.profile.classifier,
                rngs=[p.fit_seed for p in prepared],
            )
        except UnstackableModelError:
            task = partial(_fit_prepared_task, self.profile.classifier)
            if executor is None:
                prepared = [task(p) for p in prepared]
            else:
                prepared = executor.map(task, prepared)
        return [p.into_shadow_model() for p in prepared]

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


def _fit_prepared_task(config, prepared: _PreparedShadow) -> _PreparedShadow:
    """Train one already-prepared shadow (module-level for process executors)."""
    prepared.classifier.fit(prepared.dataset, config, rng=prepared.fit_seed)
    return prepared
