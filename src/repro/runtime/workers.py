"""Pool tasks: everything one cold audit needs once it leaves the gateway.

The gateway runs each cold audit as one task on its
:class:`~repro.runtime.executor.WorkerPool`; this module holds what that task
carries and runs, so "scales within one process" becomes "scales with the
machine":

* :class:`DetectorRef` — a pickle-cheap address of one fitted detector: the
  :func:`~repro.runtime.registry.registry_key` payload plus the spec and a
  runtime describing the shared store.  Process backends ship the *ref*, not
  the detector.
* :func:`resolve_detector` — worker-side hydration: the first task referencing
  a detector loads it from the shared store by registry key —
  **warm-loading, never refitting** — and caches it in the worker process, so
  every later task on that worker serves from memory.
* :class:`AuditVerdict` and the pool tasks that build it.

Every task function here is module-level: process backends pickle tasks by
qualified name, so closures, lambdas and bound methods would fail at submit
time (repro-lint L201 guards this invariant across ``repro/runtime``).

Determinism: a hydrated detector round-trips with bit-identical scores
(the PR 1 save/load contract), the per-task seed still derives from the
catalogue key inside ``detector.inspect(seed_key=...)``, and query accounting
travels inside the pickled verdict — so process-backend verdicts are
bit-identical to thread-backend and inline ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.config import RuntimeConfig
from repro.models.classifier import ImageClassifier
from repro.obs.clock import now
from repro.obs.trace import TraceContext, collect, get_tracer, relative_to
from repro.prompting.blackbox import QueryFunction
from repro.runtime.registry import DETECTOR_KIND, DetectorSpec, load_detector_artifact
from repro.runtime.store import MISS, ArtifactStore


@dataclass
class AuditVerdict:
    """One audited model's verdict."""

    name: str
    backdoor_score: float
    is_backdoored: bool
    prompted_accuracy: float
    #: black-box query budget spent prompting this model (images queried)
    query_count: int = 0
    #: round-trips to the model's query endpoint
    query_calls: int = 0
    #: how this verdict was obtained: ``"cold"`` (inspected for this
    #: submission) or a :data:`~repro.runtime.verdict_cache.CACHE_PROVENANCES`
    #: cache tier (``"memory"``/``"store"``/``"dedup"``).  ``query_count``
    #: and ``query_calls`` always describe the *original* inspection; a warm
    #: serving spent none of them
    cache: str = "cold"
    #: task-relative telemetry spans a traced pool worker ships back with a
    #: cold verdict; the gateway consumes (rebases and clears) them at
    #: harvest.  Excluded from equality and repr — telemetry on/off must not
    #: change what a verdict *is* — and never persisted by the verdict cache
    spans: List = field(default_factory=list, repr=False, compare=False)

    @property
    def verdict(self) -> str:
        return "reject" if self.is_backdoored else "accept"


@dataclass(frozen=True)
class DetectorRef:
    """A store address of one fitted detector, cheap to pickle to workers.

    ``runtime`` describes how a worker reaches the shared store (its
    ``cache_dir``) and hydrates — the gateway hands out a single-worker
    override so hydration inside a pool worker never opens a nested pool.
    """

    key_hash: str
    key: Dict[str, Any] = field(repr=False)
    spec: DetectorSpec = field(repr=False)
    runtime: RuntimeConfig = field(repr=False)


#: per-process hydrated-detector cache: key_hash -> detector.  Lives at module
#: level so every task dispatched to one worker process shares it; with the
#: fork start method a detector already hydrated in the parent is inherited.
_HYDRATED: Dict[str, Any] = {}
_HYDRATE_LOCK = threading.Lock()


def resolve_detector(ref: Any) -> Any:
    """The fitted detector a task audits against.

    A fitted detector passes through; a :class:`DetectorRef` is hydrated at
    most once per process.  Load-only (``try_load``, never the store's
    building ``fetch``): the artifact must already exist in the shared store
    (the gateway's ``register_tenant`` fitted-or-loaded it before any task
    could reference it), so a miss here is an environment error — e.g. a
    worker pointed at the wrong store — and never triggers a refit.
    """
    if not isinstance(ref, DetectorRef):
        return ref
    with _HYDRATE_LOCK:
        detector = _HYDRATED.get(ref.key_hash)
        if detector is not None:
            return detector
        store = ArtifactStore.from_config(ref.runtime)
        detector = store.try_load(
            DETECTOR_KIND,
            ref.key,
            lambda artifact: load_detector_artifact(artifact, ref.spec, ref.runtime),
        )
        if detector is MISS:
            raise RuntimeError(
                f"worker cannot hydrate detector {ref.key_hash}: no "
                f"{DETECTOR_KIND!r} artifact in the store at "
                f"{ref.runtime.cache_dir!r} — refitting "
                "in a pool worker is forbidden (the gateway fits before dispatch)"
            )
        _HYDRATED[ref.key_hash] = detector
        return detector


# ---------------------------------------------------------------------------
# module-level pool tasks (process backends pickle these by qualified name)
# ---------------------------------------------------------------------------

def _audit_task(
    detector: Any,
    key: str,
    model: ImageClassifier,
    query_function: Optional[QueryFunction],
) -> AuditVerdict:
    """One BPROM inspection; the per-task seed derives from the catalogue key."""
    result = resolve_detector(detector).inspect(
        model, query_function=query_function, seed_key=key
    )
    return AuditVerdict(
        name=key,
        backdoor_score=result.backdoor_score,
        is_backdoored=result.is_backdoored,
        prompted_accuracy=result.prompted_accuracy,
        query_count=result.query_count,
        query_calls=result.query_calls,
    )


def _cached_audit_task(cache: Any, cache_key, name: str, task, *args) -> AuditVerdict:
    """Run one audit task through the verdict cache's store tier.

    The cache drops its in-memory/in-flight state when pickled, so process
    backends can ship it; the store ``fetch`` inside
    :meth:`~repro.runtime.verdict_cache.VerdictCache.compute_through_store`
    is what keeps two racing *processes* down to one inspection.
    """
    return cache.compute_through_store(cache_key, name, lambda: task(*args))


def _traced_task(ctx: TraceContext, fn: Callable[..., Any], *args: Any) -> Any:
    """Run a pool task under a per-task span sink parented on ``ctx``.

    Works on any backend: the sink is a ContextVar, so thread-backend tasks
    never interleave spans, and on the process backend the worker's globally
    *disabled* tracer still collects into the sink.  Spans ship back on the
    verdict as offsets from task entry (monotonic clocks do not compare
    across processes); the gateway rebases them onto its own clock at
    harvest.  Only a cold verdict carries spans — a memoised verdict's work
    happened in some earlier trace.
    """
    t0 = now()
    with collect(ctx) as spans:
        with get_tracer().span("pool.execute"):
            verdict = fn(*args)
    if getattr(verdict, "cache", "cold") == "cold" and hasattr(verdict, "spans"):
        verdict.spans = relative_to(spans, t0)
    return verdict
