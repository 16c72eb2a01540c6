"""Staged pipeline runtime: persistence, parallelism and audit serving.

The runtime layer turns the BPROM pipeline into a production-shaped system:

* :class:`~repro.runtime.store.ArtifactStore` — a content-addressed,
  disk-backed cache for trained models, prompts and fitted detectors, keyed
  on profile/seed/config hashes so artefacts survive process restarts.
* :class:`~repro.runtime.executor.ParallelExecutor` — deterministic fan-out
  of the embarrassingly-parallel stages (shadow training, prompting,
  suspicious-model inspection) over thread or process pools.
* :class:`~repro.runtime.pipeline.StagedPipeline` — the stage graph
  (shadow -> prompt -> meta -> inspect) with per-stage caching and reports.
* :class:`~repro.runtime.registry.DetectorRegistry` — a store-backed
  catalogue of fitted detectors (BPROM and MNTD) with cross-process
  single-flight fitting (advisory lock files, stale takeover) and an
  in-memory map of loaded detectors.
* :class:`~repro.runtime.gateway.AuditGateway` — the one serving path:
  routes a mixed model stream to per-tenant detectors, serves warm verdicts
  from the cache, runs each cold audit as one task on the shared worker pool
  under one in-flight budget, merges the verdicts into one stream with
  ``submit``/``as_completed``/``stream`` and reports the whole serving
  picture in one ``stats()`` snapshot.
* :class:`~repro.runtime.verdict_cache.VerdictCache` — fingerprint-keyed
  memoisation of audit verdicts: a memory tier over store persistence,
  refit invalidation through the detector digest in the key and in-flight
  dedup (futures in-process, advisory locks across processes), amortising
  the query budget over redundant fleet traffic.
* :class:`~repro.runtime.workers.WorkerPool` — the gateway's shared tenant
  worker pool (thread / process / serial backends); process workers hydrate
  detectors from the shared store through pickle-cheap
  :class:`~repro.runtime.workers.DetectorRef` addresses — warm-loading,
  never refitting — for true multi-core fleet throughput.

See ARCHITECTURE.md at the repository root for the full design.
"""

from repro.runtime.executor import ParallelExecutor
from repro.runtime.locks import AdvisoryLock, LockTimeout
from repro.runtime.pipeline import Stage, StagedPipeline, StageReport
from repro.runtime.store import (
    Artifact,
    ArtifactStore,
    canonical_key,
    dataset_fingerprint,
    key_hash,
)

__all__ = [
    "AdvisoryLock",
    "Artifact",
    "ArtifactStore",
    "AuditGateway",
    "AuditJob",
    "AuditVerdict",
    "DetectorRef",
    "DetectorRegistry",
    "DetectorSpec",
    "GatewayVerdict",
    "LockTimeout",
    "RegistryEntry",
    "ParallelExecutor",
    "Stage",
    "StagedPipeline",
    "StageReport",
    "TenantProvisioner",
    "VerdictCache",
    "WorkerPool",
    "canonical_key",
    "dataset_fingerprint",
    "key_hash",
    "model_fingerprint",
    "verdict_cache_key",
]

#: serving classes import the detector, which imports this package's
#: submodules; resolving them lazily keeps the import graph acyclic
_LAZY = {
    "AuditVerdict": "repro.runtime.workers",
    "AuditJob": "repro.runtime.gateway",
    "DetectorRegistry": "repro.runtime.registry",
    "DetectorSpec": "repro.runtime.registry",
    "RegistryEntry": "repro.runtime.registry",
    "AuditGateway": "repro.runtime.gateway",
    "GatewayVerdict": "repro.runtime.gateway",
    "TenantProvisioner": "repro.runtime.gateway",
    "DetectorRef": "repro.runtime.workers",
    "WorkerPool": "repro.runtime.workers",
    "VerdictCache": "repro.runtime.verdict_cache",
    "model_fingerprint": "repro.runtime.verdict_cache",
    "verdict_cache_key": "repro.runtime.verdict_cache",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
