"""Shared experiment machinery: artifact-backed caches and per-defense evaluation.

Every experiment in :mod:`repro.eval.experiments` goes through an
:class:`ExperimentContext`, which lazily builds the expensive artefacts
(datasets, trained suspicious models, shadow pools, fitted BPROM detectors,
prompted suspicious models).  Caching is two-tier:

* an in-memory memo (keyed on every parameter that affects the artefact)
  preserves object identity within a process, so experiments that share a
  configuration — e.g. the main table and the F1 table — reuse the same
  trained models instead of retraining them;
* when the context's :class:`~repro.config.RuntimeConfig` names a cache
  directory, the persistent :class:`~repro.runtime.store.ArtifactStore`
  backs the memo, so trained models, prompts and fitted detectors survive a
  process restart — a warm store makes a repeated ``detector(...)`` call
  skip all training.

The embarrassingly-parallel builds (shadow pools, suspicious-model zoos)
additionally fan out over a :class:`~repro.runtime.executor.WorkerPool`
opened for each build when ``workers > 1``.  The context holds no pool: it is
pickled into process workers, and a pool's lock does not pickle.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.attacks.base import BackdoorAttack
from repro.attacks.registry import attack_defaults, build_attack, canonical_attack_name
from repro.config import DEFAULT_RUNTIME, ExperimentProfile, FAST, RuntimeConfig, profile_to_dict
from repro.core.detector import BpromDetector
from repro.core.shadow import ShadowModel, ShadowModelFactory
from repro.datasets.base import ImageDataset
from repro.datasets.registry import build_distribution, load_dataset
from repro.defenses.base import (
    DatasetLevelDefense,
    InputLevelDefense,
    ModelLevelDefense,
    triggered_and_clean_split,
)
from repro.defenses.model_level import MNTDDefense
from repro.defenses.registry import build_defense
from repro.ml.metrics import auroc, best_f1_from_scores
from repro.models.classifier import ImageClassifier
from repro.models.registry import build_classifier
from repro.prompting.prompted import PromptedClassifier
from repro.runtime import serialization as ser
from repro.runtime.executor import WorkerPool
from repro.runtime.store import MISS, ArtifactStore, state_fingerprint
from repro.utils.rng import derive_seed, new_rng


class SuspiciousModel:
    """One entry of the suspicious-model zoo."""

    def __init__(
        self,
        classifier: ImageClassifier,
        is_backdoored: bool,
        attack: Optional[BackdoorAttack] = None,
        attack_name: Optional[str] = None,
        poisoning=None,
        clean_accuracy: float = float("nan"),
        attack_success_rate: float = float("nan"),
    ) -> None:
        self.classifier = classifier
        self.is_backdoored = is_backdoored
        self.attack = attack
        self.attack_name = attack_name
        self.poisoning = poisoning
        self.clean_accuracy = clean_accuracy
        self.attack_success_rate = attack_success_rate


def _build_suspicious_entry(context: "ExperimentContext", key: Tuple) -> SuspiciousModel:
    """Module-level builder so executors can fan suspicious pools out."""
    return context._suspicious_entry(key)


class ExperimentContext:
    """Caches datasets, models and detectors for one (profile, seed) pair."""

    def __init__(
        self,
        profile: Optional[ExperimentProfile] = None,
        seed: int = 0,
        runtime: Optional[RuntimeConfig] = None,
    ) -> None:
        self.profile = profile or FAST
        self.seed = int(seed)
        self.runtime = runtime
        self.store = ArtifactStore.from_config(runtime)
        self._datasets: Dict[Tuple, Tuple[ImageDataset, ImageDataset]] = {}
        self._reserved: Dict[Tuple, ImageDataset] = {}
        self._suspicious: Dict[Tuple, SuspiciousModel] = {}
        self._detectors: Dict[Tuple, BpromDetector] = {}
        self._shadow_pools: Dict[Tuple, List[ShadowModel]] = {}
        self._prompted_suspicious: Dict[Tuple, PromptedClassifier] = {}
        self._mntd: Dict[Tuple, MNTDDefense] = {}

    def _store_key(self, **payload) -> dict:
        """Artifact-store key payload: profile + seed + artefact parameters."""
        return {"profile": profile_to_dict(self.profile), "seed": self.seed, **payload}

    # -- datasets ----------------------------------------------------------------
    def datasets(self, name: str) -> Tuple[ImageDataset, ImageDataset]:
        key = (name,)
        if key not in self._datasets:
            self._datasets[key] = load_dataset(name, self.profile, seed=self.seed)
        return self._datasets[key]

    def reserved_clean(self, name: str, fraction: Optional[float] = None) -> ImageDataset:
        """The defender's reserved clean dataset ``D_S``.

        ``fraction`` follows the paper's 1% / 5% / 10% convention; the sample
        counts are scaled so that 10% corresponds to the profile's test split
        (see EXPERIMENTS.md for the exact mapping).
        """
        fraction = fraction if fraction is not None else self.profile.reserved_fraction
        key = (name, round(float(fraction), 4))
        if key not in self._reserved:
            distribution = build_distribution(name, self.profile)
            per_class = max(4, int(round(self.profile.test_per_class * fraction / 0.10)))
            rng = new_rng(derive_seed(self.seed, "reserved", name, key[1]))
            self._reserved[key] = distribution.sample(per_class, rng=rng, name_suffix="-reserved")
        return self._reserved[key]

    # -- suspicious models ----------------------------------------------------------
    def _suspicious_entry(self, key: Tuple) -> SuspiciousModel:
        """Build (or fetch from the artifact store) one suspicious model.

        Datasets, attacks and poisoning are cheap and deterministic given the
        seed, so a store hit re-derives them and only skips the expensive
        ``classifier.fit`` by loading the trained weights.
        """
        (
            dataset_name,
            attack_name,
            index,
            architecture,
            poison_rate,
            cover_rate,
            kwargs_items,
            target_class,
        ) = key
        attack_kwargs = dict(kwargs_items)
        train, test = self.datasets(dataset_name)
        seed = derive_seed(self.seed, "suspicious", *key)
        name = f"{architecture}/{dataset_name}/{attack_name or 'clean'}/{index}"
        store_key = self._store_key(
            kind="suspicious",
            dataset=dataset_name,
            attack=attack_name,
            index=index,
            architecture=architecture,
            poison_rate=poison_rate,
            cover_rate=cover_rate,
            attack_kwargs=sorted(attack_kwargs.items()),
            target_class=target_class,
        )
        loaded = self.store.try_load(
            "suspicious",
            store_key,
            lambda artifact: (ser.load_classifier(artifact), artifact.load_json("metrics")),
        )
        if loaded is MISS:
            loaded = None

        def make_classifier() -> ImageClassifier:
            return build_classifier(
                architecture,
                train.num_classes,
                image_size=self.profile.image_size,
                rng=seed,
                name=name,
            )

        if attack_name is None:
            if loaded is not None:
                classifier, metrics = loaded
                return SuspiciousModel(classifier, False, clean_accuracy=metrics["clean_accuracy"])
            classifier = make_classifier()
            classifier.fit(train, self.profile.classifier, rng=seed + 1)
            entry = SuspiciousModel(classifier, False, clean_accuracy=classifier.evaluate(test))
            if self.store.enabled:
                with self.store.open_write("suspicious", store_key) as artifact:
                    ser.save_classifier(artifact, classifier)
                    artifact.save_json("metrics", {"clean_accuracy": entry.clean_accuracy})
            return entry

        canonical = canonical_attack_name(attack_name)
        attack = build_attack(
            canonical, target_class=target_class, seed=seed + 2, **attack_kwargs
        )
        defaults = attack_defaults(canonical)
        poisoning = attack.poison(
            train,
            poison_rate=poison_rate if poison_rate is not None else defaults.poison_rate,
            cover_rate=cover_rate if cover_rate is not None else defaults.cover_rate,
            rng=seed + 3,
        )
        if loaded is not None:
            classifier, metrics = loaded
            return SuspiciousModel(
                classifier,
                True,
                attack=attack,
                attack_name=canonical,
                poisoning=poisoning,
                clean_accuracy=metrics["clean_accuracy"],
                attack_success_rate=metrics["attack_success_rate"],
            )
        classifier = make_classifier()
        classifier.fit(poisoning.dataset, self.profile.classifier, rng=seed + 4)
        triggered = attack.triggered_test_set(test)
        asr = classifier.evaluate_attack_success(
            triggered.images, attack.target_class, test.labels
        )
        entry = SuspiciousModel(
            classifier,
            True,
            attack=attack,
            attack_name=canonical,
            poisoning=poisoning,
            clean_accuracy=classifier.evaluate(test),
            attack_success_rate=asr,
        )
        if self.store.enabled:
            with self.store.open_write("suspicious", store_key) as artifact:
                ser.save_classifier(artifact, classifier)
                artifact.save_json(
                    "metrics",
                    {
                        "clean_accuracy": entry.clean_accuracy,
                        "attack_success_rate": entry.attack_success_rate,
                    },
                )
        return entry

    def suspicious_model(
        self,
        dataset_name: str,
        attack_name: Optional[str],
        index: int,
        architecture: str = "resnet18",
        poison_rate: Optional[float] = None,
        cover_rate: Optional[float] = None,
        attack_kwargs: Optional[dict] = None,
        target_class: int = 0,
    ) -> SuspiciousModel:
        """Train (or fetch from cache) one suspicious model."""
        attack_kwargs = attack_kwargs or {}
        key = (
            dataset_name,
            attack_name,
            index,
            architecture,
            poison_rate,
            cover_rate,
            tuple(sorted(attack_kwargs.items())),
            target_class,
        )
        if key in self._suspicious:
            return self._suspicious[key]
        entry = self._suspicious_entry(key)
        self._suspicious[key] = entry
        return entry

    def suspicious_pool(
        self,
        dataset_name: str,
        attack_name: Optional[str],
        count: int,
        architecture: str = "resnet18",
        poison_rate: Optional[float] = None,
        cover_rate: Optional[float] = None,
        attack_kwargs: Optional[dict] = None,
        target_class: int = 0,
    ) -> List[SuspiciousModel]:
        """A batch of suspicious models; missing entries are built concurrently."""
        attack_kwargs = attack_kwargs or {}
        keys = [
            (
                dataset_name,
                attack_name,
                index,
                architecture,
                poison_rate,
                cover_rate,
                tuple(sorted(attack_kwargs.items())),
                target_class,
            )
            for index in range(count)
        ]
        missing = [key for key in keys if key not in self._suspicious]
        if missing:
            # datasets are shared state: materialise them before fanning out
            self.datasets(dataset_name)
            with WorkerPool.from_config(self.runtime, tasks=len(missing)) as pool:
                built = pool.map(partial(_build_suspicious_entry, self), missing)
            for key, entry in zip(missing, built):
                self._suspicious[key] = entry
        return [self._suspicious[key] for key in keys]

    # -- shadow pools and detectors --------------------------------------------------
    def shadow_pool(
        self,
        dataset_name: str,
        architecture: str = "resnet18",
        shadow_attack: str = "badnets",
        reserved_fraction: Optional[float] = None,
        num_clean: Optional[int] = None,
        num_backdoor: Optional[int] = None,
    ) -> List[ShadowModel]:
        key = (dataset_name, architecture, shadow_attack, reserved_fraction, num_clean, num_backdoor)
        if key not in self._shadow_pools:
            reserved = self.reserved_clean(dataset_name, reserved_fraction)
            runtime = self.runtime or DEFAULT_RUNTIME
            factory = ShadowModelFactory(
                profile=self.profile,
                architecture=architecture,
                shadow_attack=shadow_attack,
                seed=derive_seed(self.seed, "shadow-pool", *key[:3]),
                precision=runtime.precision,
            )
            store_key = self._store_key(
                kind="shadow-pool",
                dataset=dataset_name,
                architecture=architecture,
                shadow_attack=shadow_attack,
                reserved_fraction=reserved_fraction,
                num_clean=num_clean,
                num_backdoor=num_backdoor,
            )
            if runtime.precision != "float64":
                store_key["precision"] = runtime.precision
            clean = self.profile.clean_shadow_models if num_clean is None else num_clean
            backdoor = (
                self.profile.backdoor_shadow_models if num_backdoor is None else num_backdoor
            )

            def build() -> List[ShadowModel]:
                with WorkerPool.from_config(self.runtime, tasks=clean + backdoor) as pool:
                    return factory.build_pool(
                        reserved, num_clean=clean, num_backdoor=backdoor, executor=pool
                    )

            self._shadow_pools[key] = self.store.fetch(
                "shadow-pool",
                store_key,
                build=build,
                save=ser.save_shadow_pool,
                load=ser.load_shadow_pool,
            )
        return self._shadow_pools[key]

    def detector(
        self,
        source_dataset: str,
        target_dataset: str = "stl10",
        architecture: str = "resnet18",
        shadow_attack: str = "badnets",
        reserved_fraction: Optional[float] = None,
        num_clean_shadows: Optional[int] = None,
        num_backdoor_shadows: Optional[int] = None,
    ) -> BpromDetector:
        """A fitted BPROM detector (cached in memory and in the artifact store)."""
        key = (
            source_dataset,
            target_dataset,
            architecture,
            shadow_attack,
            reserved_fraction,
            num_clean_shadows,
            num_backdoor_shadows,
        )
        if key in self._detectors:
            return self._detectors[key]
        store_key = self._store_key(
            kind="detector",
            source_dataset=source_dataset,
            target_dataset=target_dataset,
            architecture=architecture,
            shadow_attack=shadow_attack,
            reserved_fraction=reserved_fraction,
            num_clean_shadows=num_clean_shadows,
            num_backdoor_shadows=num_backdoor_shadows,
        )
        precision = (self.runtime or DEFAULT_RUNTIME).precision
        if precision != "float64":
            store_key["precision"] = precision

        def build() -> BpromDetector:
            reserved = self.reserved_clean(source_dataset, reserved_fraction)
            target_train, target_test = self.datasets(target_dataset)
            shadows = self.shadow_pool(
                source_dataset,
                architecture,
                shadow_attack,
                reserved_fraction,
                num_clean_shadows,
                num_backdoor_shadows,
            )
            detector = BpromDetector(
                profile=self.profile,
                architecture=architecture,
                shadow_attack=shadow_attack,
                seed=derive_seed(self.seed, "detector", *key),
                runtime=self.runtime,
            )
            detector.fit(reserved, target_train, target_test, shadow_models=shadows)
            return detector

        def load(artifact) -> BpromDetector:
            # reattach the (store-backed) shadow pool so experiments reading
            # detector.shadow_models / prompted_shadows — e.g. the figure 5
            # projection — behave identically on warm and cold caches
            shadows = self.shadow_pool(
                source_dataset,
                architecture,
                shadow_attack,
                reserved_fraction,
                num_clean_shadows,
                num_backdoor_shadows,
            )
            return BpromDetector.load(
                artifact.directory, runtime=self.runtime, shadow_models=shadows
            )

        detector = self.store.fetch(
            "detector",
            store_key,
            build=build,
            save=lambda artifact, det: det.save(artifact.directory),
            load=load,
        )
        self._detectors[key] = detector
        return detector

    def detector_cache_key(
        self,
        source_dataset: str,
        target_dataset: str,
        architecture: str,
        shadow_attack: str,
        reserved_fraction: Optional[float],
        num_clean_shadows: Optional[int],
        num_backdoor_shadows: Optional[int],
    ) -> str:
        """Stable identity of a detector configuration (for prompted-model caches).

        Includes every parameter that affects the fitted detector — notably
        ``shadow_attack``, so prompted-suspicious cache entries cannot collide
        across detectors trained with different shadow attacks.
        """
        return "/".join(
            str(part)
            for part in (
                source_dataset,
                target_dataset,
                architecture,
                shadow_attack,
                reserved_fraction,
                num_clean_shadows,
                num_backdoor_shadows,
            )
        )

    def prompted_suspicious(
        self,
        detector: BpromDetector,
        entry: SuspiciousModel,
        detector_key: str,
    ) -> PromptedClassifier:
        """Black-box prompted view of one suspicious model (cached).

        Keyed on the classifier's weight fingerprint, not just its name:
        sweep experiments reuse names across poison rates / attack kwargs,
        and a name-only key would serve a prompt trained against a different
        model.
        """
        fingerprint = state_fingerprint(entry.classifier.state_dict())
        key = (detector_key, entry.classifier.name, fingerprint)
        if key not in self._prompted_suspicious:
            store_key = self._store_key(
                kind="prompted-suspicious",
                detector=detector_key,
                model=entry.classifier.name,
                model_state=fingerprint,
            )
            self._prompted_suspicious[key] = self.store.fetch(
                "prompted-suspicious",
                store_key,
                build=lambda: detector.prompt_suspicious(entry.classifier),
                save=ser.save_prompted,
                load=lambda artifact: ser.load_prompted(artifact, entry.classifier),
            )
        return self._prompted_suspicious[key]

    def mntd(self, dataset_name: str, architecture: str = "resnet18") -> MNTDDefense:
        key = (dataset_name, architecture)
        if key not in self._mntd:
            defense = MNTDDefense(
                profile=self.profile,
                architecture=architecture,
                seed=derive_seed(self.seed, "mntd", dataset_name, architecture),
            )
            defense.fit(
                self.reserved_clean(dataset_name),
                shadow_models=self.shadow_pool(dataset_name, architecture),
            )
            self._mntd[key] = defense
        return self._mntd[key]


_CONTEXTS: Dict[Tuple[str, int], ExperimentContext] = {}


def get_context(
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    runtime: Optional[RuntimeConfig] = None,
) -> ExperimentContext:
    """Process-wide cached context so benchmarks share trained models.

    ``runtime`` only applies when the context is first created; pass
    ``RuntimeConfig.from_env()`` (or set ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``)
    to parallelise and persist the benchmark runs.
    """
    profile = profile or FAST
    key = (profile.name, int(seed))
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ExperimentContext(profile, seed, runtime=runtime)
    return _CONTEXTS[key]


# ---------------------------------------------------------------------------
# evaluation entry points used by the experiment modules
# ---------------------------------------------------------------------------

def build_suspicious_pool(
    context: ExperimentContext,
    dataset_name: str,
    attack_name: str,
    architecture: str = "resnet18",
    num_clean: Optional[int] = None,
    num_backdoor: Optional[int] = None,
    **kwargs,
) -> Tuple[List[SuspiciousModel], List[int]]:
    """Clean + attack-specific backdoored suspicious models with 0/1 labels."""
    num_clean = num_clean if num_clean is not None else context.profile.clean_suspicious_models
    num_backdoor = (
        num_backdoor if num_backdoor is not None else context.profile.backdoor_suspicious_models
    )
    pool = context.suspicious_pool(dataset_name, None, num_clean, architecture)
    pool += context.suspicious_pool(dataset_name, attack_name, num_backdoor, architecture, **kwargs)
    labels = [0] * num_clean + [1] * num_backdoor
    return pool, labels


def bprom_detection_auroc(
    context: ExperimentContext,
    dataset_name: str,
    attack_name: str,
    target_dataset: str = "stl10",
    architecture: str = "resnet18",
    suspicious_architecture: Optional[str] = None,
    shadow_attack: str = "badnets",
    reserved_fraction: Optional[float] = None,
    num_clean_shadows: Optional[int] = None,
    num_backdoor_shadows: Optional[int] = None,
    **pool_kwargs,
) -> Dict[str, float]:
    """AUROC / F1 of BPROM distinguishing clean from ``attack_name``-backdoored models."""
    detector = context.detector(
        dataset_name,
        target_dataset,
        architecture,
        shadow_attack=shadow_attack,
        reserved_fraction=reserved_fraction,
        num_clean_shadows=num_clean_shadows,
        num_backdoor_shadows=num_backdoor_shadows,
    )
    detector_key = context.detector_cache_key(
        dataset_name,
        target_dataset,
        architecture,
        shadow_attack,
        reserved_fraction,
        num_clean_shadows,
        num_backdoor_shadows,
    )
    pool, labels = build_suspicious_pool(
        context,
        dataset_name,
        attack_name,
        architecture=suspicious_architecture or architecture,
        **pool_kwargs,
    )
    scores = []
    prompted_accuracies = []
    for entry in pool:
        prompted = context.prompted_suspicious(detector, entry, detector_key)
        scores.append(detector.meta_classifier.backdoor_score(prompted))
        prompted_accuracies.append(prompted.evaluate(detector.meta_classifier.query_pool))
    scores = np.asarray(scores)
    labels_arr = np.asarray(labels)
    backdoored = labels_arr == 1
    return {
        "auroc": auroc(scores, labels_arr),
        "f1": best_f1_from_scores(scores, labels_arr),
        "mean_clean_score": float(scores[~backdoored].mean()),
        "mean_backdoor_score": float(scores[backdoored].mean()),
        "mean_clean_prompted_accuracy": float(np.mean(np.asarray(prompted_accuracies)[~backdoored])),
        "mean_backdoor_prompted_accuracy": float(np.mean(np.asarray(prompted_accuracies)[backdoored])),
        "mean_asr": float(np.nanmean([entry.attack_success_rate for entry in pool if entry.is_backdoored])),
    }


def evaluate_input_level_defense(
    context: ExperimentContext,
    defense_name: str,
    dataset_name: str,
    attack_name: str,
    architecture: str = "resnet18",
    on_clean_model: bool = False,
    max_samples: int = 48,
) -> Dict[str, float]:
    """AUROC / F1 of an input-level defense separating triggered from benign inputs."""
    _, test = context.datasets(dataset_name)
    auxiliary = context.reserved_clean(dataset_name)
    defense = build_defense(defense_name, auxiliary_data=auxiliary, rng=context.seed)
    if not isinstance(defense, InputLevelDefense):
        raise TypeError(f"{defense_name!r} is not an input-level defense")
    backdoored = context.suspicious_model(dataset_name, attack_name, 0, architecture)
    model_entry = (
        context.suspicious_model(dataset_name, None, 0, architecture)
        if on_clean_model
        else backdoored
    )
    clean_images, triggered_images = triggered_and_clean_split(
        backdoored.attack, test, max_samples=max_samples, rng=context.seed
    )
    evaluation = defense.evaluate(model_entry.classifier, clean_images, triggered_images)
    return {"auroc": evaluation.auroc, "f1": evaluation.f1}


def evaluate_dataset_level_defense(
    context: ExperimentContext,
    defense_name: str,
    dataset_name: str,
    attack_name: str,
    architecture: str = "resnet18",
) -> Dict[str, float]:
    """AUROC / F1 of a dataset-level defense recovering the poisoned training samples."""
    defense = build_defense(defense_name, rng=context.seed)
    if not isinstance(defense, DatasetLevelDefense):
        raise TypeError(f"{defense_name!r} is not a dataset-level defense")
    entry = context.suspicious_model(dataset_name, attack_name, 0, architecture)
    evaluation = defense.evaluate(entry.classifier, entry.poisoning)
    return {"auroc": evaluation.auroc, "f1": evaluation.f1}


def evaluate_model_level_defense(
    context: ExperimentContext,
    defense_name: str,
    dataset_name: str,
    attack_name: str,
    architecture: str = "resnet18",
    **pool_kwargs,
) -> Dict[str, float]:
    """AUROC / F1 of a model-level baseline (MM-BD, MNTD) over a suspicious pool."""
    pool, labels = build_suspicious_pool(
        context, dataset_name, attack_name, architecture=architecture, **pool_kwargs
    )
    clean_data = context.reserved_clean(dataset_name)
    if defense_name.lower() == "mntd":
        defense: ModelLevelDefense = context.mntd(dataset_name, architecture)
    else:
        defense = build_defense(defense_name, rng=context.seed)
    evaluation = defense.evaluate_models(
        [entry.classifier for entry in pool], labels, clean_data, rng=context.seed
    )
    return {"auroc": evaluation.auroc, "f1": evaluation.f1}
