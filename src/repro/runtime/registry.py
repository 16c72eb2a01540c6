"""Detector registry: a store-backed catalogue of fitted BPROM detectors.

One front door for a fleet of detectors.  A production MLaaS auditor receives
suspicious models for many *tenants* — different architectures and datasets —
and must route each to the right fitted detector, fitting one on demand at
most once fleet-wide.  The registry provides exactly that:

* **addressing** — a detector's identity is its :class:`DetectorSpec`
  (profile, architecture, shadow attack, threshold, seed, precision) plus
  the fingerprints of the datasets it is fitted on; ``registry_key`` turns
  that into an artifact-store key, so any knob that changes the fitted
  detector changes its address;
* **cross-process single-flight** — ``get_or_fit`` loads or fits through
  :meth:`~repro.runtime.store.ArtifactStore.fetch`: a warm store serves a
  previously fitted detector (zero training, in *any* process), and on a
  cold one the store's advisory lock lets concurrent callers fit exactly
  once — the losers wait, then load the winner's artifact.  The fit stages
  inside a fit are fetched the same way, under their own keys' locks, taken
  while the detector's is held.  Without a store, only the in-memory map
  shares a fit;
* **residency** — loaded detectors stay in an in-memory map for the
  registry's lifetime, so repeat requests in one process never touch the
  store.

A detector round-trips through ``BpromDetector.save``/``load`` with
bit-identical scores, which is what makes a registry hit indistinguishable
from the original fit.  The MNTD baseline is not served here: it has no
black-box query seam, so it stays a library class in
:mod:`repro.defenses.model_level` for the paper's comparison tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from threading import RLock
from typing import Any, Dict, Optional

from repro.config import (
    DEFAULT_RUNTIME,
    ExperimentProfile,
    FAST,
    PRECISIONS,
    RuntimeConfig,
    profile_to_dict,
)
from repro.core.detector import BpromDetector
from repro.datasets.base import ImageDataset
from repro.models.registry import architecture_family
from repro.obs.metrics import MetricsRegistry, counter_property
from repro.obs.trace import get_tracer
from repro.runtime.store import Artifact, ArtifactStore, dataset_fingerprint, key_hash

#: artifact kind under which fitted detectors are stored
DETECTOR_KIND = "fitted-detector"

#: defense kinds the registry can fit and serve
DEFENSE_KINDS = ("bprom",)


@dataclass(frozen=True)
class DetectorSpec:
    """Everything that determines *which* fitted detector a tenant needs.

    ``defense`` must be ``"bprom"``: the paper's detector, fitted on
    ``(reserved_clean, target_train, target_test)``.  The remaining fields
    mirror the corresponding ``BpromDetector`` constructor knobs.
    """

    defense: str = "bprom"
    profile: ExperimentProfile = field(default_factory=lambda: FAST)
    architecture: str = "resnet18"
    seed: int = 0
    threshold: float = 0.5
    #: the single shadow attack used to poison shadow pools
    shadow_attack: str = "badnets"
    #: precision tier the shadow pools train in: "float64" (reference,
    #: bit-identity contract) or "float32" (fast tier, tolerance contract).
    #: Tiers never share artifacts — the registry key carries the precision.
    precision: str = "float64"

    def __post_init__(self) -> None:
        if self.defense not in DEFENSE_KINDS:
            raise ValueError(
                f"unknown defense {self.defense!r}; available: {DEFENSE_KINDS}"
            )
        architecture_family(self.architecture)  # fail fast on unknown arch
        object.__setattr__(self, "precision", str(self.precision).lower())
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {self.precision!r}; available: {PRECISIONS}"
            )

    @property
    def family(self) -> str:
        """Coarse architecture family ("cnn" | "transformer" | "mlp") — the
        gateway's routing coordinate."""
        return architecture_family(self.architecture)

    def with_overrides(self, **kwargs) -> "DetectorSpec":
        return replace(self, **kwargs)


@dataclass
class RegistryEntry:
    """One loaded detector plus the provenance of how it got into memory."""

    key_hash: str
    spec: DetectorSpec
    #: the fitted ``BpromDetector``
    detector: Any
    #: "fit" (trained here), "store" (loaded from a warm artifact store) or
    #: "memory" (served from the registry's in-memory map); only "fit"
    #: trained anything
    source: str
    #: the full :func:`registry_key` payload this entry was resolved under —
    #: what a :class:`~repro.runtime.workers.DetectorRef` ships to process
    #: workers so they can hydrate the same artifact from the shared store
    key: Optional[Dict[str, Any]] = None


def registry_key(
    spec: DetectorSpec,
    reserved_clean: ImageDataset,
    target_train: Optional[ImageDataset] = None,
    target_test: Optional[ImageDataset] = None,
) -> Dict[str, Any]:
    """The artifact-store key payload addressing one fitted detector."""
    key = {
        "defense": spec.defense,
        "profile": profile_to_dict(spec.profile),
        "architecture": spec.architecture,
        "seed": spec.seed,
        "threshold": spec.threshold,
        "shadow_attack": spec.shadow_attack,
        # two fields the spec no longer has, kept at their old defaults so
        # warm stores keep their hashes
        "shadow_attacks": ["badnets", "blend", "trojan"],
        "num_queries": 16,
        "reserved": dataset_fingerprint(reserved_clean),
        "target_train": dataset_fingerprint(target_train) if target_train is not None else None,
        "target_test": dataset_fingerprint(target_test) if target_test is not None else None,
    }
    # only the non-default tier adds an entry, so detectors cached before the
    # precision split keep their hashes (float64 warm stores stay warm) while
    # float32 fits can never be served a float64 artifact or vice versa
    if spec.precision != "float64":
        key["precision"] = spec.precision
    return key


def load_detector_artifact(
    artifact: Artifact, spec: DetectorSpec, runtime: RuntimeConfig
) -> BpromDetector:
    """Reconstruct a fitted detector from its store artifact.

    Module-level so process-pool workers (:mod:`repro.runtime.workers`) can
    hydrate detectors without carrying a registry instance; the registry's own
    store loads go through the same code, which is what makes a worker-side
    hydration bit-identical to an in-process store hit.
    """
    return BpromDetector.load(
        artifact.directory,
        runtime=runtime.with_overrides(precision=spec.precision),
    )


class DetectorRegistry:
    """Store-backed catalogue of fitted detectors with single-flight fitting.

    Typical gateway-process usage::

        registry = DetectorRegistry(runtime=RuntimeConfig(cache_dir="cache"))
        entry = registry.get_or_fit(DetectorSpec(defense="bprom", architecture="mlp"),
                                    reserved_clean, target_train, target_test)
        entry.detector.inspect(suspicious_model)

    Thread-safe: the in-memory map is guarded by a lock, and the store's
    ``fetch`` single-flights each fit, so concurrent callers — threads here
    or whole other processes sharing the store — fit each detector at most
    once fleet-wide.
    """

    #: counters live in a mergeable metrics registry (attribute API and
    #: ``stats()`` shape unchanged): ``hits`` — served from the in-memory map
    #: without touching the store; ``store_hits`` — loaded from a warm
    #: artifact store (zero training); ``fits`` — fitted here (cold
    #: everywhere)
    hits = counter_property("registry.hits")
    store_hits = counter_property("registry.store_hits")
    fits = counter_property("registry.fits")

    def __init__(
        self,
        runtime: Optional[RuntimeConfig] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.runtime = runtime or DEFAULT_RUNTIME
        self.store = store if store is not None else ArtifactStore.from_config(self.runtime)
        self._entries: Dict[str, RegistryEntry] = {}
        self._lock = RLock()
        self.metrics = MetricsRegistry()
        self.hits = 0
        self.store_hits = 0
        self.fits = 0

    # -- in-memory map --------------------------------------------------------
    def _insert(self, entry: RegistryEntry) -> None:
        with self._lock:
            self._entries[entry.key_hash] = entry

    def _memory_hit(self, digest: str) -> Optional[RegistryEntry]:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                return None
            self.hits += 1
            # a per-call view, not a mutation: earlier callers keep the
            # provenance their own get_or_fit observed ("fit"/"store")
            return replace(entry, source="memory")

    # -- store codecs ---------------------------------------------------------
    @staticmethod
    def _save_detector(artifact: Artifact, spec: DetectorSpec, detector: Any) -> None:
        # a detector artifact is simply the detector's own save() layout inside
        # the artifact directory, plus the store manifest written around it
        detector.save(artifact.directory)
        artifact.save_json("registry", {"defense": spec.defense})

    # -- fitting --------------------------------------------------------------
    def _fit(
        self,
        spec: DetectorSpec,
        reserved_clean: ImageDataset,
        target_train: Optional[ImageDataset],
        target_test: Optional[ImageDataset],
    ) -> BpromDetector:
        if target_train is None or target_test is None:
            raise ValueError(
                "fitting a BPROM detector needs target_train and target_test datasets"
            )
        detector = BpromDetector(
            profile=spec.profile,
            architecture=spec.architecture,
            shadow_attack=spec.shadow_attack,
            threshold=spec.threshold,
            seed=spec.seed,
            # the spec's precision is authoritative for what gets fitted; the
            # registry's own runtime keeps its worker/caching settings
            runtime=self.runtime.with_overrides(precision=spec.precision),
        )
        return detector.fit(reserved_clean, target_train, target_test)

    # -- the front door -------------------------------------------------------
    def get_or_fit(
        self,
        spec: DetectorSpec,
        reserved_clean: ImageDataset,
        target_train: Optional[ImageDataset] = None,
        target_test: Optional[ImageDataset] = None,
    ) -> RegistryEntry:
        """The fitted detector for ``spec`` on these datasets, fitting at most
        once fleet-wide.

        Lookup order: in-memory map, then the artifact store's ``fetch``
        (a warm store serves a previously fitted detector with **zero
        training**, whichever process wrote it; of N concurrent cold-store
        callers exactly one fits, the rest wait on the key's lock and load
        the winner's artifact).
        """
        with get_tracer().span("registry.get_or_fit") as span:
            entry = self._get_or_fit_impl(spec, reserved_clean, target_train, target_test)
            span.set(key_hash=entry.key_hash, source=entry.source)
            return entry

    def _get_or_fit_impl(
        self,
        spec: DetectorSpec,
        reserved_clean: ImageDataset,
        target_train: Optional[ImageDataset] = None,
        target_test: Optional[ImageDataset] = None,
    ) -> RegistryEntry:
        key = registry_key(spec, reserved_clean, target_train, target_test)
        digest = key_hash(key)
        entry = self._memory_hit(digest)
        if entry is not None:
            return entry
        fitted = []

        def fit() -> BpromDetector:
            fitted.append(True)
            return self._fit(spec, reserved_clean, target_train, target_test)

        detector = self.store.fetch(
            DETECTOR_KIND,
            key,
            fit,
            save=lambda artifact, detector: self._save_detector(artifact, spec, detector),
            load=lambda artifact: load_detector_artifact(artifact, spec, self.runtime),
        )
        with self._lock:
            if fitted:
                self.fits += 1
            else:
                self.store_hits += 1
        entry = RegistryEntry(
            key_hash=digest,
            spec=spec,
            detector=detector,
            source="fit" if fitted else "store",
            key=key,
        )
        self._insert(entry)
        return entry

    def stats(self) -> Dict[str, Any]:
        """Serving counters: the registry panel of the gateway dashboard."""
        with self._lock:
            return {
                "hits": self.hits,
                "store_hits": self.store_hits,
                "fits": self.fits,
                "loaded": len(self._entries),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DetectorRegistry(loaded={len(self._entries)}, hits={self.hits}, "
            f"store_hits={self.store_hits}, fits={self.fits})"
        )
