"""Fleet-scale verdict cache: fingerprint-keyed memoisation of audit verdicts.

Production audit traffic is redundant — the same suspicious model is submitted
by many tenants and users — yet every submission pays the full black-box
prompting bill.  The paper's headline efficiency metric is the *query budget*;
memoising verdicts by model-weight fingerprint amortises that budget
fleet-wide, turning a redundant submission from O(full inspection) into
O(hash + load).

Key construction
----------------
A cached verdict is addressed by the triple

``(model fingerprint, detector digest, precision tier)``

* :func:`model_fingerprint` — an order-stable content hash over the model's
  ``state_dict`` arrays plus its architectural metadata (two differently
  *named* uploads of the same weights share a verdict; two differently
  *trained* models never do);
* the **detector digest** — the registry ``key_hash`` of the tenant's fitted
  detector, so refitting a detector invalidates every verdict it produced;
* the **precision tier**, so float32 and float64 deployments never share an
  entry.

Tiers and dedup
---------------
The cache is two-tier: an in-memory map from key digest to verdict over
persistence in the :class:`~repro.runtime.store.ArtifactStore`; a store hit
is promoted into memory.  Concurrent submissions of one fingerprint are
**single-flighted**: in-process via a shared future
(:meth:`VerdictCache.begin`), cross-process through the store's
:meth:`~repro.runtime.store.ArtifactStore.fetch`
(:meth:`VerdictCache.compute_through_store`) — two threads *and* two processes
racing on the same model perform exactly one inspection.

Staleness
---------
A verdict never outlives its detector: a refit changes the detector digest,
which changes the key.  Entries are otherwise kept for the cache's lifetime
(memory) or the store's (disk).

The cache assumes the submission's query endpoint is faithful to the
submitted weights — a ``query_function`` that answers differently than the
model's own ``predict_proba`` would make memoisation unsound, exactly as it
would make the verdict itself unsound.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import Future
from dataclasses import replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.config import RuntimeConfig
from repro.obs.metrics import MetricsRegistry, counter_property
from repro.runtime.store import (
    Artifact,
    ArtifactStore,
    MISS,
    canonical_key,
    key_hash,
    state_fingerprint,
)

#: artifact kind under which cached verdicts live in the store
VERDICT_KIND = "audit-verdict"

#: bump when the cached-verdict payload layout changes incompatibly
VERDICT_CACHE_FORMAT_VERSION = 1

#: cache provenance values an :class:`~repro.runtime.workers.AuditVerdict`
#: may carry: ``"cold"`` (inspected now), ``"memory"``/``"store"`` (served
#: from a tier), ``"dedup"`` (shared a concurrent submission's inspection)
CACHE_PROVENANCES = ("cold", "memory", "store", "dedup")


def model_fingerprint(model: Any) -> str:
    """Order-stable content digest of a suspicious model.

    Hashes the architectural metadata (architecture, class count, input
    geometry — *not* the display name, which vendors reuse and attackers
    choose) together with the sorted ``state_dict`` arrays via
    :func:`~repro.runtime.store.state_fingerprint`.  Two uploads of the same
    weights under different names share a fingerprint; retraining changes it.
    """
    digest = hashlib.sha256()
    metadata = {
        "architecture": getattr(model, "architecture", None),
        "num_classes": getattr(model, "num_classes", None),
        "image_size": getattr(model, "image_size", None),
        "in_channels": getattr(model, "in_channels", None),
    }
    digest.update(canonical_key(metadata).encode("utf-8"))
    digest.update(state_fingerprint(model.state_dict()).encode("utf-8"))
    return digest.hexdigest()[:20]


def verdict_cache_key(fingerprint: str, detector_digest: str, precision: str) -> Dict[str, Any]:
    """The store key payload addressing one cached verdict.

    Every coordinate is unconditional: the detector digest ties the verdict
    to the exact fitted detector that produced it (a refit bumps the digest
    and invalidates), and the precision tier keeps float32 and float64
    deployments from ever sharing an entry (lint rule K202 enforces both).
    """
    return {
        "fingerprint": str(fingerprint),
        "detector_digest": str(detector_digest),
        "precision": str(precision),
    }


class VerdictCache:
    """Two-tier, dedup-aware memoisation of audit verdicts.

    Parameters
    ----------
    store:
        Persistence tier; ``None`` derives one from ``runtime``.  A disabled
        store leaves the memory tier and in-process dedup fully functional
        (the cache just forgets on restart).
    runtime:
        Source of the store when ``store`` is ``None`` (its ``cache_dir``).
    enabled:
        ``False`` makes the cache inert: nothing is served or stored.
    """

    #: all tallies live in a mergeable metrics registry (the attribute API
    #: and the ``stats()`` shape are unchanged); ``inspections`` counts cold
    #: inspections actually performed through this cache instance
    memory_hits = counter_property("verdict_cache.memory_hits")
    store_hits = counter_property("verdict_cache.store_hits")
    dedup_hits = counter_property("verdict_cache.dedup_hits")
    misses = counter_property("verdict_cache.misses")
    inspections = counter_property("verdict_cache.inspections")

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        runtime: Optional[RuntimeConfig] = None,
        enabled: bool = True,
    ) -> None:
        self.store = store if store is not None else ArtifactStore.from_config(runtime)
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        #: memory tier: key digest -> verdict in its cold (tier-resident) form
        self._entries: Dict[str, Any] = {}
        #: in-flight leaders: key digest -> shared future of the inspection
        self._inflight: Dict[str, Any] = {}
        self.metrics = MetricsRegistry()
        self.memory_hits = 0
        self.store_hits = 0
        self.dedup_hits = 0
        self.misses = 0
        self.inspections = 0

    # -- pickling: a worker-process clone shares only the store tier ---------
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_entries"] = {}
        state["_inflight"] = {}
        # the clone tallies from zero into its own registry; the owner's
        # counts stay local and the readers merge snapshots
        state["metrics"] = MetricsRegistry()
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- key construction -----------------------------------------------------
    def key_for(self, model: Any, detector_digest: str, precision: str) -> Dict[str, Any]:
        """The cache key for auditing ``model`` with one fitted detector."""
        return verdict_cache_key(model_fingerprint(model), detector_digest, precision)

    # -- serving --------------------------------------------------------------
    @staticmethod
    def served(verdict: Any, name: str, provenance: str) -> Any:
        """A copy of a cached verdict re-labelled for one submission.

        The stored verdict keeps the key it was minted under; each serving
        rewrites the display name to the current submission's key and stamps
        how the verdict was obtained (``cache`` provenance field).
        """
        return replace(verdict, name=name, cache=provenance)

    def lookup(self, key: Dict[str, Any], name: str) -> Optional[Any]:
        """Serve a verdict from the memory or store tier, or ``None``.

        A store hit promotes the verdict into the memory tier.  The store is
        only read (``try_load``): a miss here never inspects.
        """
        if not self.enabled:
            return None
        digest = key_hash(key)
        with self._lock:
            verdict = self._entries.get(digest)
            if verdict is not None:
                self.memory_hits += 1
                return self.served(verdict, name, "memory")
        if not self.store.enabled:
            return None
        verdict = self.store.try_load(VERDICT_KIND, key, self._load_verdict)
        if verdict is MISS:
            return None
        with self._lock:
            self.store_hits += 1
            self._entries[digest] = verdict
        return self.served(verdict, name, "store")

    # -- in-process single flight ---------------------------------------------
    def begin(self, key: Dict[str, Any], name: str):
        """Claim one submission's place in the in-flight dedup protocol.

        Returns one of::

            ("verdict", verdict)   # memory hit — serve immediately
            ("follower", future)   # another submission is inspecting this
                                   # fingerprint; share its future
            ("leader", token)      # this submission owns the inspection;
                                   # finish with complete()/fail()

        The check-and-claim is atomic, so two racing submissions resolve to
        exactly one leader.  The store tier is *not* consulted here (callers
        do a :meth:`lookup` first, and the leader's
        :meth:`compute_through_store` re-checks it cross-process).
        """
        digest = key_hash(key)
        with self._lock:
            verdict = self._entries.get(digest)
            if verdict is not None:
                self.memory_hits += 1
                return ("verdict", self.served(verdict, name, "memory"))
            shared = self._inflight.get(digest)
            if shared is not None:
                self.dedup_hits += 1
                return ("follower", shared)
            self.misses += 1
            shared = Future()
            self._inflight[digest] = shared
            return ("leader", (digest, key, shared))

    def follow(self, key: Dict[str, Any]) -> Optional[Future]:
        """The in-flight leader's shared future for ``key``, if any.

        Lets a caller that must not claim leadership yet (the gateway, before
        it holds a budget slot) join an existing flight without waiting for
        a slot.
        """
        digest = key_hash(key)
        with self._lock:
            shared = self._inflight.get(digest)
            if shared is not None:
                self.dedup_hits += 1
            return shared

    def complete(self, token: Tuple[str, Dict[str, Any], Any], verdict: Any) -> None:
        """Leader-side success: publish the verdict to memory and followers."""
        digest, _key, shared = token
        with self._lock:
            if verdict.cache == "cold":
                self.inspections += 1
            self._entries[digest] = self._canonical_verdict(verdict)
            self._inflight.pop(digest, None)
        shared.set_result(verdict)

    def fail(self, token: Tuple[str, Dict[str, Any], Any], exc: BaseException) -> None:
        """Leader-side failure: release the claim, propagate to followers."""
        digest, _key, shared = token
        with self._lock:
            self._inflight.pop(digest, None)
        shared.set_exception(exc)

    # -- cross-process single flight ------------------------------------------
    def compute_through_store(
        self, key: Dict[str, Any], name: str, compute: Callable[[], Any]
    ) -> Any:
        """Run one inspection with store write-back and cross-process dedup.

        Executed where the inspection executes (a worker thread or process),
        as one :meth:`~repro.runtime.store.ArtifactStore.fetch`: of racing
        processes one inspects under the key's lock, and the others find its
        verdict on disk and serve it as a store hit.  Without a persistent
        store this degrades to a plain compute (in-process dedup still
        applies upstream).
        """
        if not self.enabled or not self.store.enabled:
            return compute()
        computed = []

        def inspect() -> Any:
            computed.append(True)
            return compute()

        verdict = self.store.fetch(
            VERDICT_KIND,
            key,
            inspect,
            save=lambda artifact, verdict: self._save_verdict(artifact, key, verdict),
            load=self._load_verdict,
        )
        if computed:
            return verdict
        with self._lock:
            self.store_hits += 1
        return self.served(verdict, name, "store")

    # -- store tier ------------------------------------------------------------
    @staticmethod
    def _canonical_verdict(verdict: Any):
        """The tier-resident form of a verdict: provenance reset to cold.

        Tiers store what the inspection produced; provenance describes each
        *serving* and is stamped by :meth:`served` on the way out.
        """
        if getattr(verdict, "cache", "cold") != "cold":
            return replace(verdict, cache="cold")
        return verdict

    @staticmethod
    def _verdict_payload(verdict: Any) -> Dict[str, Any]:
        return {
            "name": verdict.name,
            "backdoor_score": float(verdict.backdoor_score),
            "is_backdoored": bool(verdict.is_backdoored),
            "prompted_accuracy": float(verdict.prompted_accuracy),
            "query_count": int(verdict.query_count),
            "query_calls": int(verdict.query_calls),
        }

    @staticmethod
    def _load_verdict(artifact: Artifact) -> Any:
        """One stored verdict.

        JSON round-trips floats exactly (repr-based), so a loaded verdict is
        bit-identical to the one written.  Only ``payload`` is read; older
        documents also carry a ``created`` stamp, which is ignored.
        """
        payload = artifact.load_json("verdict")["payload"]
        from repro.runtime.workers import AuditVerdict

        return AuditVerdict(
            name=payload["name"],
            backdoor_score=payload["backdoor_score"],
            is_backdoored=payload["is_backdoored"],
            prompted_accuracy=payload["prompted_accuracy"],
            query_count=payload["query_count"],
            query_calls=payload["query_calls"],
        )

    def _save_verdict(self, artifact: Artifact, key: Dict[str, Any], verdict: Any) -> None:
        artifact.save_json(
            "verdict",
            {
                "format_version": VERDICT_CACHE_FORMAT_VERSION,
                "key": dict(key),
                "payload": self._verdict_payload(self._canonical_verdict(verdict)),
            },
        )

    # -- dashboard -------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Hit/miss/dedup counters plus the memory tier's entry count."""
        with self._lock:
            hits = self.memory_hits + self.store_hits + self.dedup_hits
            total = hits + self.misses
            return {
                "enabled": self.enabled,
                "memory_hits": self.memory_hits,
                "store_hits": self.store_hits,
                "dedup_hits": self.dedup_hits,
                "misses": self.misses,
                "hit_rate": (hits / total) if total else 0.0,
                "inspections": self.inspections,
                "entries": len(self._entries),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"VerdictCache({state}, entries={len(self._entries)}, hits="
            f"{self.memory_hits}/{self.store_hits}/{self.dedup_hits}, "
            f"misses={self.misses})"
        )
