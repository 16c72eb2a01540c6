"""Pipeline runtime: persistence, parallelism and audit serving.

The runtime layer turns the BPROM pipeline into a production-shaped system:

* :class:`~repro.runtime.store.ArtifactStore` — a content-addressed,
  disk-backed cache for trained models, prompts and fitted detectors, keyed
  on profile/seed/config hashes so artefacts survive process restarts.  Its
  ``fetch`` memoises each of ``BpromDetector.fit``'s cacheable stages
  (shadow pool, prompted shadows).
* :class:`~repro.runtime.executor.WorkerPool` — the one pool class:
  deterministic ordered ``map`` for the embarrassingly-parallel stages
  (shadow training, prompting, suspicious-model inspection) and counted
  ``submit`` for the gateway's audits, over thread, process or serial
  backends.
* :class:`~repro.runtime.registry.DetectorRegistry` — a store-backed
  catalogue of fitted BPROM detectors with cross-process single-flight
  fitting (advisory lock files, stale takeover) and an in-memory map of
  loaded detectors.
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
* :mod:`~repro.runtime.workers` — the gateway's pool tasks; process
  workers hydrate detectors from the shared store through pickle-cheap
  :class:`~repro.runtime.workers.DetectorRef` addresses — warm-loading,
  never refitting — for true multi-core fleet throughput.

See ARCHITECTURE.md at the repository root for the full design.
"""

from repro.runtime.executor import WorkerPool
from repro.runtime.locks import AdvisoryLock, LockTimeout
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
    "VerdictCache": "repro.runtime.verdict_cache",
    "model_fingerprint": "repro.runtime.verdict_cache",
    "verdict_cache_key": "repro.runtime.verdict_cache",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
