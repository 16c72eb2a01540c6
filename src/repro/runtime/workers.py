"""Tenant worker pool: the gateway's one dispatch layer, process-capable.

This module holds everything one cold audit needs once it leaves the
gateway, so "scales within one process" becomes "scales with the machine":

* :class:`WorkerPool` — one persistent executor shared by every tenant of an
  :class:`~repro.runtime.gateway.AuditGateway`, with a ``"thread"`` (default),
  ``"process"`` (true multi-core) or ``"serial"`` (inline) backend.
  :meth:`WorkerPool.submit` counts each task and runs it on the pool.
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
bit-identical to the thread/serial backends.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.config import RuntimeConfig
from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.obs.clock import now
from repro.obs.metrics import MetricsRegistry, counter_property
from repro.obs.trace import TraceContext, collect, get_tracer, relative_to
from repro.prompting.blackbox import QueryFunction
from repro.runtime.executor import close_pool, open_pool
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
    ``cache_dir``) and hydrates — the gateway hands out a serial, single-worker
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
    most once per process.  Warm-loading only: the artifact must already
    exist in the shared store (the gateway's ``register_tenant``
    fitted-or-loaded it before any task could reference it), so a miss here
    is an environment error — e.g. a worker pointed at the wrong store — and
    never triggers a refit.
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


def _mntd_audit_task(
    defense: Any, clean_data: ImageDataset, key: str, model: ImageClassifier
) -> AuditVerdict:
    """One MNTD scoring pass: a query batch plus the meta-forest vote."""
    defense = resolve_detector(defense)
    score = float(defense.score_model(model, clean_data))
    return AuditVerdict(
        name=key,
        backdoor_score=score,
        is_backdoored=score >= defense.threshold,
        prompted_accuracy=float("nan"),
    )


def _cached_audit_task(cache: Any, cache_key, name: str, task, *args) -> AuditVerdict:
    """Run one audit task through the verdict cache's store tier.

    The cache drops its in-memory/in-flight state when pickled, so process
    backends can ship it; the advisory-lock single flight inside
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


# ---------------------------------------------------------------------------
# the shared pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """One persistent executor shared by every tenant of a gateway.

    The executor is created lazily on the first :meth:`submit` and stays
    alive until :meth:`close`; every tenant submits through it, so the
    machine's parallelism is one dial (``workers``) rather than per-tenant
    pools multiplying.  ``backend="process"`` requires that submitted tasks be
    module-level callables with picklable arguments — process tenants submit
    :class:`DetectorRef`-based tasks for exactly this reason.  The executor
    comes from :func:`~repro.runtime.executor.open_pool`, so OpenBLAS is
    capped at ``cores // workers`` threads per worker until :meth:`close`.

    Thread-safe: concurrent first submits race on one lock, so exactly one
    executor is ever created.
    """

    #: tasks submitted to the pool (for :meth:`stats`); backed by the
    #: mergeable metrics registry
    tasks = counter_property("pool.tasks")

    def __init__(self, workers: int = 1, backend: str = "thread") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown worker-pool backend {backend!r}")
        self.workers = int(workers)
        self.backend = backend
        self._pool = None
        self._lock = threading.Lock()
        self._closed = False
        self.metrics = MetricsRegistry()
        self.tasks = 0

    @property
    def parallel(self) -> bool:
        """Whether submitted tasks actually run concurrently."""
        return self.backend != "serial" and self.workers > 1

    @property
    def started(self) -> bool:
        """Whether the pool has been handed a task yet."""
        with self._lock:
            return self.tasks > 0

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Count one task and run it on the pool.

        A non-parallel pool (serial backend or one worker) runs the task
        inline and returns an already-resolved future, with any task
        exception set on it exactly as a real pool would.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self.tasks += 1
            if self.parallel and self._pool is None:
                self._pool = open_pool(self.workers, self.backend)
            pool = self._pool
        if pool is not None:
            return pool.submit(fn, *args)
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # surfaced via future.result(), like a pool;
            # KeyboardInterrupt/SystemExit propagate — a real pool's caller
            # would see those too, never a worker.  The broad catch is the
            # contract here (any task exception must reach the future), which
            # repro-lint L302 recognises by the set_exception call below
            future.set_exception(exc)
        return future

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "backend": self.backend,
                "workers": self.workers,
                "started": self.tasks > 0,
                "tasks": self.tasks,
            }

    def close(self) -> None:
        """Drain outstanding tasks and shut the pool down (idempotent)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            close_pool(pool)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(workers={self.workers}, backend={self.backend!r}, "
            f"tasks={self.tasks})"
        )
