"""BpromDetector — the end-to-end public API of the reproduction.

``fit`` runs the BPROM training pipeline (shadow -> prompt -> meta) on the
runtime from :mod:`repro.runtime`: the shadow-training and prompting stages
fan out over one :class:`~repro.runtime.executor.WorkerPool` and are each
memoised by :meth:`~repro.runtime.store.ArtifactStore.fetch` in a persistent
store when a :class:`~repro.config.RuntimeConfig` with a cache directory is
supplied.  A fitted detector round-trips through :meth:`save`/:meth:`load`
with bit-identical scores, which is what allows one training run to serve
many audit requests across processes (see
:class:`repro.runtime.gateway.AuditGateway`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import (
    DEFAULT_RUNTIME,
    ExperimentProfile,
    FAST,
    RuntimeConfig,
    profile_from_dict,
    profile_to_dict,
)
from repro.core.meta import MetaClassifier
from repro.core.prompting_stage import prompt_shadow_models, prompt_suspicious_model
from repro.core.shadow import ShadowModel, ShadowModelFactory
from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.obs.trace import get_tracer
from repro.prompting.blackbox import QueryCounter, QueryFunction
from repro.prompting.prompted import PromptedClassifier
from repro.runtime.executor import WorkerPool
from repro.runtime.store import (
    Artifact,
    ArtifactStore,
    dataset_fingerprint,
    state_fingerprint,
)
from repro.runtime import serialization as ser
from repro.utils.rng import SeedLike, derive_seed, normalize_seed

#: bump when the saved-detector layout changes incompatibly
DETECTOR_FORMAT_VERSION = 1


@dataclass
class DetectionResult:
    """Outcome of inspecting one suspicious model."""

    #: score in [0, 1]; higher means more likely backdoored
    backdoor_score: float
    #: hard decision at the detector's threshold
    is_backdoored: bool
    #: accuracy of the prompted suspicious model on the target task
    prompted_accuracy: float
    #: the prompted suspicious model, for further analysis
    prompted_model: Optional[PromptedClassifier] = field(repr=False, default=None)
    #: black-box query budget spent prompting this model (images whose
    #: confidence vectors were requested — the paper's query-count metric)
    query_count: int = 0
    #: round-trips to the query endpoint; the batched engine collapses each
    #: CMA-ES generation into one call, so this is ~lambda x smaller than the
    #: sequential path at identical ``query_count``
    query_calls: int = 0


def _shadow_pool_fingerprint(pool: Sequence[ShadowModel]) -> str:
    """Content digest of a shadow pool (weights + labels), for prompt-stage keys."""
    digest = hashlib.sha256()
    for shadow in pool:
        digest.update(b"1" if shadow.is_backdoored else b"0")
        digest.update(state_fingerprint(shadow.classifier.state_dict()).encode("utf-8"))
    return digest.hexdigest()[:20]


def _inspect_task(
    detector: "BpromDetector",
    item: Tuple[ImageClassifier, Optional[QueryFunction], Optional[str]],
) -> DetectionResult:
    """Module-level task wrapper so process-backend executors can pickle it."""
    suspicious, query_function, seed_key = item
    return detector.inspect(suspicious, query_function=query_function, seed_key=seed_key)


class BpromDetector:
    """Black-box model-level backdoor detector based on visual prompting.

    Typical usage::

        detector = BpromDetector(profile=FAST, seed=0)
        detector.fit(reserved_clean, target_train, target_test)
        result = detector.inspect(suspicious_classifier)
        if result.is_backdoored:
            ...

    ``fit`` implements the three training steps of Algorithm 1 (shadow-model
    generation, prompting and meta-model training); ``inspect`` prompts the
    suspicious model with a gradient-free optimiser and feeds its query
    confidence vectors to the meta-classifier.  ``runtime`` controls worker
    fan-out and persistent caching of the expensive stages.
    """

    def __init__(
        self,
        profile: Optional[ExperimentProfile] = None,
        architecture: str = "resnet18",
        shadow_attack: str = "badnets",
        threshold: float = 0.5,
        meta_classifier_kind: str = "random_forest",
        meta_augmentation: int = 8,
        seed: SeedLike = 0,
        runtime: Optional[RuntimeConfig] = None,
    ) -> None:
        self.profile = profile or FAST
        self.architecture = architecture
        self.shadow_attack = shadow_attack
        self.threshold = float(threshold)
        self.seed = normalize_seed(seed)
        self.runtime = runtime or DEFAULT_RUNTIME
        self.meta_classifier_kind = meta_classifier_kind
        self.meta_augmentation = int(meta_augmentation)
        self.meta_classifier = MetaClassifier(
            query_samples=self.profile.query_samples,
            num_trees=self.profile.meta_trees,
            augmentation=meta_augmentation,
            classifier_kind=meta_classifier_kind,
            rng=derive_seed(self.seed, "meta"),
        )
        self.shadow_models: List[ShadowModel] = []
        self.prompted_shadows: List[PromptedClassifier] = []
        self._target_train: Optional[ImageDataset] = None
        self._fitted = False
        self._store = ArtifactStore.from_config(self.runtime)

    # -- training -----------------------------------------------------------------
    def _base_key(self, reserved_clean: Optional[ImageDataset]) -> dict:
        key = {
            "profile": profile_to_dict(self.profile),
            "architecture": self.architecture,
            "shadow_attack": self.shadow_attack,
            "seed": self.seed,
            "reserved": dataset_fingerprint(reserved_clean) if reserved_clean is not None else None,
        }
        # the key entry appears only for the non-default tier, so every
        # float64 artifact cached before the precision split keeps its hash
        # (warm caches stay warm) while float32 runs can never collide with it
        if self.runtime.precision != "float64":
            key["precision"] = self.runtime.precision
        return key

    def fit(
        self,
        reserved_clean: ImageDataset,
        target_train: ImageDataset,
        target_test: ImageDataset,
        shadow_models: Optional[Sequence[ShadowModel]] = None,
    ) -> "BpromDetector":
        """Train shadow models, prompt them and fit the meta-classifier.

        Parameters
        ----------
        reserved_clean:
            The defender's reserved clean dataset ``D_S`` (a small fraction of
            the suspicious task's test set).
        target_train, target_test:
            The external clean dataset ``D_T`` split into prompt-training and
            query/evaluation parts.
        shadow_models:
            Pre-trained shadow models to reuse (skips shadow training); mainly
            used by the evaluation harness to share shadow pools across
            experiments.
        """
        self._target_train = target_train
        base_key = self._base_key(reserved_clean)
        count = self.profile.total_shadow_models if shadow_models is None else len(shadow_models)
        # one pool serves both fan-out stages; the meta fit runs after it
        # closes, outside its BLAS cap
        with WorkerPool.from_config(self.runtime, tasks=count) as workers:
            if shadow_models is None:
                factory = ShadowModelFactory(
                    profile=self.profile,
                    architecture=self.architecture,
                    shadow_attack=self.shadow_attack,
                    seed=derive_seed(self.seed, "shadows"),
                    precision=self.runtime.precision,
                )
                pool = self._fetch_stage(
                    "shadow",
                    "shadow-pool",
                    {**base_key, "stage": "shadow"},
                    build=lambda: factory.build_pool(reserved_clean, executor=workers),
                    save=ser.save_shadow_pool,
                    load=ser.load_shadow_pool,
                )
            else:
                # an externally supplied pool is keyed by content instead:
                # its fingerprint feeds the prompt-stage key below
                with get_tracer().span("fit.shadow", cached=False):
                    pool = list(shadow_models)
            if not pool:
                raise ValueError("cannot fit BPROM with an empty shadow-model pool")
            prompt_key = {
                **base_key,
                "stage": "prompt",
                "target_train": dataset_fingerprint(target_train),
                "shadow_pool": _shadow_pool_fingerprint(pool),
            }
            prompted = self._fetch_stage(
                "prompt",
                "prompted-shadows",
                prompt_key,
                build=lambda: prompt_shadow_models(
                    pool,
                    target_train,
                    profile=self.profile,
                    seed=derive_seed(self.seed, "prompting"),
                    executor=workers,
                ),
                save=ser.save_prompted_pool,
                load=lambda artifact: ser.load_prompted_pool(
                    artifact, [shadow.classifier for shadow in pool]
                ),
            )
        with get_tracer().span("fit.meta", cached=False):
            self.meta_classifier.set_query_pool(target_test)
            self.meta_classifier.fit(prompted, [int(shadow.is_backdoored) for shadow in pool])

        self.shadow_models = pool
        self.prompted_shadows = prompted
        self._fitted = True
        return self

    def _fetch_stage(self, name: str, kind: str, key: dict, build, save, load):
        """One cacheable fit stage: a store ``fetch`` under its ``fit.<name>``
        span, which records whether the stage loaded."""
        with get_tracer().span(f"fit.{name}") as span:
            hits = self._store.hits
            value = self._store.fetch(kind, key, build, save=save, load=load)
            span.set(cached=self._store.hits > hits)
        return value

    # -- persistence ----------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the fitted detector (meta-classifier, prompts, query pool).

        The saved artifact contains everything needed to serve
        :meth:`inspect` after :meth:`load` — the fitted meta-classifier with
        its query pool and query subsets, the prompt-training dataset
        ``D_T`` and the detector configuration — plus the learned shadow
        prompts for analysis.  The shadow classifiers themselves are not
        stored (they are training-time artefacts, cached separately by the
        artifact store).
        """
        if not self._fitted:
            raise RuntimeError("only a fitted detector can be saved")
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        artifact = Artifact(directory)
        artifact.save_json(
            "detector",
            {
                "format_version": DETECTOR_FORMAT_VERSION,
                "profile": profile_to_dict(self.profile),
                "architecture": self.architecture,
                "shadow_attack": self.shadow_attack,
                "threshold": self.threshold,
                "meta_classifier_kind": self.meta_classifier_kind,
                "meta_augmentation": self.meta_augmentation,
                "seed": self.seed,
                "precision": self.runtime.precision,
                "shadow_labels": [int(s.is_backdoored) for s in self.shadow_models],
            },
        )
        ser.save_meta_classifier(artifact, self.meta_classifier)
        ser.save_dataset(artifact, self._target_train, name="target_train")
        if self.prompted_shadows:
            ser.save_prompted_pool(artifact, self.prompted_shadows)
        return directory

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        runtime: Optional[RuntimeConfig] = None,
        shadow_models: Optional[Sequence[ShadowModel]] = None,
    ) -> "BpromDetector":
        """Restore a detector saved by :meth:`save`; scores are bit-identical.

        The restored detector serves :meth:`inspect` / :meth:`inspect_many`
        immediately.  Shadow classifiers are not part of the artifact; pass
        ``shadow_models`` (e.g. a pool reloaded from the artifact store) to
        reattach them — the saved prompts are then rebound to their source
        classifiers, restoring ``prompted_shadows`` as well.  Without it,
        both lists are empty and :meth:`fit` would retrain from scratch.
        """
        artifact = Artifact(Path(path))
        meta = artifact.load_json("detector")
        if meta["format_version"] != DETECTOR_FORMAT_VERSION:
            raise ValueError(
                f"saved detector has format {meta['format_version']}, "
                f"expected {DETECTOR_FORMAT_VERSION}"
            )
        # pre-precision-split artifacts carry no "precision" entry: float64
        saved_precision = meta.get("precision", "float64")
        if runtime is None:
            runtime = DEFAULT_RUNTIME.with_overrides(precision=saved_precision)
        elif runtime.precision != saved_precision:
            runtime = runtime.with_overrides(precision=saved_precision)
        detector = cls(
            profile=profile_from_dict(meta["profile"]),
            architecture=meta["architecture"],
            shadow_attack=meta["shadow_attack"],
            threshold=meta["threshold"],
            meta_classifier_kind=meta["meta_classifier_kind"],
            meta_augmentation=meta["meta_augmentation"],
            seed=meta["seed"],
            runtime=runtime,
        )
        detector.meta_classifier = ser.load_meta_classifier(artifact)
        detector._target_train = ser.load_dataset(artifact, name="target_train")
        if shadow_models is not None:
            detector.shadow_models = list(shadow_models)
            if artifact.has("prompts"):
                detector.prompted_shadows = ser.load_prompted_pool(
                    artifact, [shadow.classifier for shadow in detector.shadow_models]
                )
        detector._fitted = True
        return detector

    # -- inspection -----------------------------------------------------------------
    def prompt_suspicious(
        self,
        suspicious: ImageClassifier,
        query_function: Optional[QueryFunction] = None,
        seed_key: Optional[str] = None,
        query_counter: Optional[QueryCounter] = None,
    ) -> PromptedClassifier:
        """Black-box prompt the suspicious model on ``D_T`` (no gradients used).

        ``seed_key`` is the stable identity the prompting seed derives from.
        It defaults to the model's name; batch audits pass the catalogue key
        instead, so two catalogue entries that happen to share a ``.name``
        still get independent prompting seeds.
        """
        if self._target_train is None:
            raise RuntimeError("fit must be called before inspecting models")
        seed_key = suspicious.name if seed_key is None else seed_key
        return prompt_suspicious_model(
            suspicious,
            self._target_train,
            profile=self.profile,
            seed=derive_seed(self.seed, "suspicious", seed_key),
            query_function=query_function,
            query_counter=query_counter,
        )

    def inspect(
        self,
        suspicious: ImageClassifier,
        query_function: Optional[QueryFunction] = None,
        seed_key: Optional[str] = None,
    ) -> DetectionResult:
        """Decide whether ``suspicious`` carries a backdoor."""
        if not self._fitted:
            raise RuntimeError("fit must be called before inspecting models")
        tracer = get_tracer()
        counter = QueryCounter()
        with tracer.span("inspect.prompt") as span:
            prompted = self.prompt_suspicious(
                suspicious,
                query_function=query_function,
                seed_key=seed_key,
                query_counter=counter,
            )
            span.set(queries=counter.images, calls=counter.calls)
        query_pool = self.meta_classifier.query_pool
        with tracer.span("inspect.score"):
            # the meta-features and the prompted-accuracy signal both read
            # the prompted model over the query pool: one batched query
            # serves both
            probabilities = prompted.predict_source_proba(query_pool.images)
            score = self.meta_classifier.score_from_source_proba(probabilities)
            predictions = np.argmax(prompted.mapping.map_probabilities(probabilities), axis=1)
            prompted_accuracy = float(np.mean(predictions == query_pool.labels))
        return DetectionResult(
            backdoor_score=score,
            is_backdoored=score >= self.threshold,
            prompted_accuracy=prompted_accuracy,
            prompted_model=prompted,
            query_count=counter.images,
            query_calls=counter.calls,
        )

    def inspect_many(
        self,
        suspicious_models: Sequence[ImageClassifier],
        query_functions: Optional[Sequence[Optional[QueryFunction]]] = None,
        executor: Optional[WorkerPool] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[DetectionResult]:
        """Inspect a fleet of suspicious models, prompting them concurrently.

        Every model's black-box prompting seed is derived from its ``keys``
        entry (the catalogue key in a batch audit), falling back to the model
        name, so the results are identical to calling :meth:`inspect`
        sequentially with the same keys — the fan-out only changes wall-clock
        time.  The fan-out runs on ``executor`` when given, otherwise on a
        pool opened from the detector's runtime for this call.
        """
        if not self._fitted:
            raise RuntimeError("fit must be called before inspecting models")
        if query_functions is not None and len(query_functions) != len(suspicious_models):
            raise ValueError("query_functions and suspicious_models disagree on length")
        if keys is not None and len(keys) != len(suspicious_models):
            raise ValueError("keys and suspicious_models disagree on length")
        if query_functions is None:
            query_functions = [None] * len(suspicious_models)
        if keys is None:
            keys = [None] * len(suspicious_models)
        items = list(zip(suspicious_models, query_functions, keys))
        task = partial(_inspect_task, self)
        if executor is not None:
            return executor.map(task, items)
        with WorkerPool.from_config(self.runtime, tasks=len(items)) as pool:
            return pool.map(task, items)

    def score_models(
        self,
        suspicious_models: Sequence[ImageClassifier],
        executor: Optional[WorkerPool] = None,
    ) -> np.ndarray:
        """Backdoor scores for a batch of suspicious models (used for AUROC)."""
        results = self.inspect_many(suspicious_models, executor=executor)
        return np.array([result.backdoor_score for result in results])
