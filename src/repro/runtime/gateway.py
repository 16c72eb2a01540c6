"""Multi-tenant audit gateway: the one serving path for every audit.

The serve path below this module scales one detector (batched queries,
parallel shadow pools); the gateway scales *tenants*.  An MLaaS auditor
receives heterogeneous suspicious models — different architecture families
and datasets — and the gateway:

* **routes** each ``(key, model, metadata)`` submission to its tenant's
  detector, matching on architecture family
  (:func:`repro.models.registry.architecture_family`) and dataset
  fingerprint;
* **loads or fits** each tenant's detector through the
  :class:`~repro.runtime.registry.DetectorRegistry` — at most one fit
  fleet-wide, zero training on a warm store;
* **serves** each submission through one path: route → verdict-cache lookup
  or in-flight follow → budget slot → cache claim → one task on the shared
  :class:`~repro.runtime.executor.WorkerPool` → harvest.  Only a cold leader
  takes a slot of the shared ``max_in_flight`` budget and becomes a pool
  task, so a burst on one tenant cannot starve the process of memory;
* **merges** every tenant's verdicts into a single completion-ordered
  stream of :class:`GatewayVerdict`; verdicts are bit-identical to calling
  each tenant detector's ``inspect(model, seed_key=key)`` by hand (the
  per-key seed derivation is shared);
* **reports** the whole serving picture in one :meth:`stats` snapshot:
  per-tenant verdict counts and query budgets, registry hit/fit counters
  and the store statistics.
"""

from __future__ import annotations

import threading
import warnings
from collections import deque
from contextlib import nullcontext
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.config import DEFAULT_RUNTIME, RuntimeConfig
from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.models.registry import architecture_family
from repro.obs.clock import now
from repro.obs.metrics import QUERY_BUCKETS, MetricsRegistry, merge_snapshots
from repro.obs.trace import TraceContext, get_tracer, new_id, rebased
from repro.prompting.blackbox import QueryFunction
from repro.runtime.executor import WorkerPool
from repro.runtime.registry import DetectorRegistry, DetectorSpec, RegistryEntry
from repro.runtime.store import dataset_fingerprint
from repro.runtime.verdict_cache import VerdictCache
from repro.runtime.workers import (
    AuditVerdict,
    DetectorRef,
    _audit_task,
    _cached_audit_task,
    _traced_task,
)


@dataclass
class GatewayVerdict(AuditVerdict):
    """An :class:`AuditVerdict` annotated with the tenant that produced it."""

    tenant: str = ""


@dataclass
class AuditJob:
    """Handle to one submitted audit: the catalogue key plus its pending verdict."""

    key: str
    future: "Future[AuditVerdict]" = field(repr=False)

    @property
    def done(self) -> bool:
        return self.future.done()

    def result(self, timeout: Optional[float] = None) -> AuditVerdict:
        """Block until the verdict is available (re-raises task exceptions)."""
        return self.future.result(timeout)


@dataclass
class Tenant:
    """One registered tenant: its spec, registry entry and what a task needs."""

    tenant_id: str
    spec: DetectorSpec
    entry: RegistryEntry
    #: dataset fingerprints this tenant answers for (routing coordinate)
    fingerprints: Tuple[str, ...]
    #: what a pool task audits against: the fitted detector, or on the
    #: process backend its pickle-cheap :class:`DetectorRef`
    detector: Any
    accepted: int = 0
    rejected: int = 0
    #: black-box queries actually spent (cold inspections only — warm
    #: servings cost nothing, which is what amortisation measures)
    query_count: int = 0
    query_calls: int = 0
    #: verdicts served from the cache's memory/store tiers
    cache_hits: int = 0
    #: verdicts that shared a concurrent submission's inspection
    dedup_hits: int = 0
    #: whether this tenant was auto-provisioned on first touch rather than
    #: registered explicitly
    provisioned: bool = False

    @property
    def defense(self) -> str:
        return self.spec.defense

    @property
    def family(self) -> str:
        return self.spec.family

    def task(
        self, key: str, model: ImageClassifier, query_function: Optional[QueryFunction]
    ) -> tuple:
        """The ``(fn, *args)`` pool task one cold audit of ``model`` runs."""
        return (_audit_task, self.detector, key, model, query_function)


@dataclass
class TenantProvisioner:
    """Datasets plus a spec template for standing tenants up on first touch.

    Without a provisioner, an unroutable submission raises ``KeyError``.
    With one, the gateway derives a :class:`DetectorSpec` from the
    submission's metadata (architecture and defense; everything else from
    ``template``) and registers the tenant on the spot — the fit
    goes through :meth:`DetectorRegistry.get_or_fit`, so N racing gateways
    (threads or whole processes over one store) provisioning the same spec
    still perform exactly one fit under the registry's single-flight lock.
    """

    #: the suspicious task's reserved clean data every provisioned tenant
    #: answers for (BPROM's D_S)
    reserved_clean: ImageDataset
    #: BPROM target-domain datasets; fitting requires both
    target_train: Optional[ImageDataset] = None
    target_test: Optional[ImageDataset] = None
    #: defaults for every spec field the metadata does not override
    template: DetectorSpec = field(default_factory=DetectorSpec)

    def spec_for(self, metadata: Dict[str, Any]) -> DetectorSpec:
        """The detector spec a submission's metadata asks for."""
        overrides: Dict[str, Any] = {}
        if metadata.get("defense"):
            overrides["defense"] = metadata["defense"]
        if metadata.get("architecture"):
            overrides["architecture"] = metadata["architecture"]
        return self.template.with_overrides(**overrides) if overrides else self.template

    @staticmethod
    def tenant_id_for(spec: DetectorSpec) -> str:
        """Deterministic id, so racing gateways converge on one tenant."""
        return f"auto-{spec.defense}-{spec.architecture}"


#: one submission: ``(key, model)`` or ``(key, model, metadata)``
Submission = Union[
    Tuple[str, ImageClassifier],
    Tuple[str, ImageClassifier, Optional[Dict[str, Any]]],
]

#: a submission's telemetry coordinates:
#: ``((trace_id, audit_span_id) | None, submit timestamp)``
_TraceMeta = Tuple[Optional[Tuple[str, str]], float]


class AuditGateway:
    """Front door routing a mixed model stream onto a fleet of detectors.

    Typical usage::

        runtime = RuntimeConfig(workers=4, cache_dir="cache")
        with AuditGateway(runtime=runtime) as gateway:
            gateway.register_tenant("vision-cnn", DetectorSpec(architecture="resnet18"),
                                    reserved_a, target_train, target_test)
            gateway.register_tenant("tabular-mlp", DetectorSpec(architecture="mlp"),
                                    reserved_b, target_train, target_test)
            for verdict in gateway.stream(submissions):
                quarantine(verdict) if verdict.is_backdoored else release(verdict)
            print(gateway.stats())
    """

    def __init__(
        self,
        registry: Optional[DetectorRegistry] = None,
        runtime: Optional[RuntimeConfig] = None,
        max_in_flight: Optional[int] = None,
        provisioner: Optional[TenantProvisioner] = None,
    ) -> None:
        if runtime is None:
            runtime = registry.runtime if registry is not None else DEFAULT_RUNTIME
        self.runtime = runtime
        self.registry = registry if registry is not None else DetectorRegistry(runtime=runtime)
        backend = runtime.backend
        if backend == "process" and not self.registry.store.enabled:
            # process workers hydrate detectors from the shared store by
            # registry key; without a store they could only refit, which
            # the warm-loading contract forbids
            warnings.warn(
                "backend='process' requires a persistent artifact store for "
                "worker-side detector hydration; falling back to the thread "
                "backend"
            )
            backend = "thread"
        #: the shared tenant worker pool every cold audit runs on
        self.worker_pool = WorkerPool(workers=runtime.workers, backend=backend)
        #: auto-provisioning policy; ``None`` keeps unroutable submissions an error
        self.provisioner = provisioner
        self._provision_lock = threading.Lock()
        #: fingerprint-keyed verdict memoisation; ``None`` disables caching.
        #: It shares the registry's store so cached verdicts live beside the
        #: detectors that produced them
        self.verdict_cache = (
            VerdictCache(store=self.registry.store, runtime=runtime)
            if runtime.verdict_cache
            else None
        )
        if max_in_flight is None:
            max_in_flight = 2 * runtime.workers
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        #: shared in-flight budget across all tenants
        self.max_in_flight = int(max_in_flight)
        self._slots = threading.Semaphore(self.max_in_flight)
        self._tenants: Dict[str, Tenant] = {}
        #: submitted-but-unharvested jobs: future -> (tenant_id, job, trace
        #: coordinates)
        self._pending: Dict[Future, Tuple[str, AuditJob, _TraceMeta]] = {}
        self._lock = threading.Lock()
        #: the gateway's own mergeable metrics (per-tenant latency and
        #: query-spend histograms); folded with every component registry in
        #: the ``stats()["telemetry"]`` sub-dashboard
        self.metrics = MetricsRegistry()
        self._telemetry = bool(runtime.telemetry)
        if self._telemetry:
            get_tracer().enable()

    # -- tenant lifecycle ------------------------------------------------------
    def register_tenant(
        self,
        tenant_id: str,
        spec: DetectorSpec,
        reserved_clean: ImageDataset,
        target_train: Optional[ImageDataset] = None,
        target_test: Optional[ImageDataset] = None,
    ) -> Tenant:
        """Stand up one tenant: load-or-fit its detector.

        The detector comes through the registry, so registering the same
        tenant in a second gateway process performs zero training on a warm
        store.  The tenant answers for models whose metadata carries the
        fingerprint of ``reserved_clean`` (the suspicious task's data) or
        of one of the target datasets.
        """
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} is already registered")
        entry = self.registry.get_or_fit(spec, reserved_clean, target_train, target_test)
        fingerprints = [dataset_fingerprint(reserved_clean)]
        for dataset in (target_train, target_test):
            if dataset is not None:
                fingerprints.append(dataset_fingerprint(dataset))
        detector = entry.detector
        if self.worker_pool.backend == "process":
            # tasks ship this store address instead of the detector object;
            # workers hydrate by registry key (register_tenant just ensured
            # the artifact exists) under a serial single-worker runtime so
            # hydration never opens a nested pool
            detector = DetectorRef(
                key_hash=entry.key_hash,
                key=entry.key,
                spec=spec,
                runtime=self.runtime.with_overrides(workers=1, backend="serial"),
            )
        tenant = Tenant(
            tenant_id=tenant_id,
            spec=spec,
            entry=entry,
            fingerprints=tuple(fingerprints),
            detector=detector,
        )
        with self._lock:
            # re-checked under the lock: the early check above is advisory,
            # and two concurrent registrations of one id must not silently
            # overwrite each other
            if tenant_id in self._tenants:
                raise ValueError(f"tenant {tenant_id!r} is already registered")
            self._tenants[tenant_id] = tenant
        return tenant

    @property
    def tenants(self) -> Dict[str, Tenant]:
        with self._lock:
            return dict(self._tenants)

    # -- routing ---------------------------------------------------------------
    def route(self, metadata: Dict[str, Any]) -> Tenant:
        """The tenant a submission's metadata selects.

        Matching coordinates (all optional, every given one must match):
        ``tenant`` (explicit pin), ``defense`` (default ``"bprom"``),
        ``architecture`` (matched by family) or ``family`` directly, and
        ``dataset_fingerprint``.  Exactly one tenant must survive the filter;
        zero raises ``KeyError``, several raise ``ValueError`` (the submitter
        must provide a finer coordinate).
        """
        with self._lock:
            tenants = list(self._tenants.values())
        if not tenants:
            raise KeyError("no tenants registered")
        if "tenant" in metadata:
            for tenant in tenants:
                if tenant.tenant_id == metadata["tenant"]:
                    return tenant
            raise KeyError(f"unknown tenant {metadata['tenant']!r}")
        defense = metadata.get("defense", "bprom")
        family = metadata.get("family")
        if "architecture" in metadata and metadata["architecture"] is not None:
            family = architecture_family(metadata["architecture"])
        fingerprint = metadata.get("dataset_fingerprint")
        candidates = [
            tenant
            for tenant in tenants
            if tenant.defense == defense
            and (family is None or tenant.family == family)
            and (fingerprint is None or fingerprint in tenant.fingerprints)
        ]
        if len(candidates) == 1:
            return candidates[0]
        description = (
            f"defense={defense!r} family={family!r} dataset_fingerprint={fingerprint!r}"
        )
        if not candidates:
            raise KeyError(
                f"no tenant matches {description}; registered: {sorted(t.tenant_id for t in tenants)}"
            )
        raise ValueError(
            f"{description} is ambiguous across tenants "
            f"{sorted(t.tenant_id for t in candidates)}; add a finer routing "
            f"coordinate (e.g. 'tenant' or 'dataset_fingerprint')"
        )

    # -- auto-provisioning -----------------------------------------------------
    def _route_or_provision(self, metadata: Dict[str, Any]) -> Tenant:
        """Route a submission, standing a tenant up on first touch if allowed.

        Only a *zero-match* miss provisions; an explicit ``tenant`` pin that
        names an unknown tenant stays an error (the submitter asked for a
        specific tenant, not for a new one), and an ambiguous match still
        raises ``ValueError`` — provisioning never resolves ambiguity.
        """
        try:
            return self.route(metadata)
        except KeyError:
            if self.provisioner is None or "tenant" in metadata:
                raise
        return self._provision(metadata)

    def _provision(self, metadata: Dict[str, Any]) -> Tenant:
        spec = self.provisioner.spec_for(metadata)
        tenant_id = self.provisioner.tenant_id_for(spec)
        # one provisioning at a time in this gateway; racing *gateways* are
        # serialised further down by the registry's advisory fit lock (they
        # each register their own tenant object, but fit at most once)
        with self._provision_lock:
            with self._lock:
                existing = self._tenants.get(tenant_id)
            if existing is not None:
                return existing
            with get_tracer().span("gateway.provision", tenant=tenant_id):
                tenant = self.register_tenant(
                    tenant_id,
                    spec,
                    self.provisioner.reserved_clean,
                    self.provisioner.target_train,
                    self.provisioner.target_test,
                )
        tenant.provisioned = True
        return tenant

    # -- submission ------------------------------------------------------------
    def _default_metadata(self, model: ImageClassifier) -> Dict[str, Any]:
        return {"architecture": getattr(model, "architecture", None)}

    def _begin_trace(self) -> _TraceMeta:
        """A submission's telemetry coordinates: trace ids (tracing only) + t0.

        The audit span's id is minted *now* so everything the submission
        does — routing, provisioning, the pool task — parents under it, but
        the span itself is recorded at harvest, when its end is known.  The
        timestamp is taken either way: latency histograms are cheap counters
        and stay on regardless of the tracer switch.
        """
        if get_tracer().enabled:
            return (new_id(), new_id()), now()
        return None, now()

    def _trace_scope(self, ids: Optional[Tuple[str, str]]):
        """Ambient-parent scope for a submission's gateway-side spans."""
        return get_tracer().context(*ids) if ids is not None else nullcontext()

    def _book(self, tenant: Tenant, key: str, future: Future, meta: _TraceMeta) -> AuditJob:
        """Register a submitted job as pending harvest."""
        job = AuditJob(key=key, future=future)
        with self._lock:
            self._pending[future] = (tenant.tenant_id, job, meta)
        return job

    @staticmethod
    def _completed(verdict: AuditVerdict) -> Future:
        future: Future = Future()
        future.set_result(verdict)
        return future

    def _chained(self, shared: Future, key: str) -> Future:
        """A follower's future: the leader's verdict re-served for ``key``."""
        future: Future = Future()

        def _chain(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(self.verdict_cache.served(done.result(), key, "dedup"))

        shared.add_done_callback(_chain)
        return future

    def _finish_claim(self, token, future: Future) -> None:
        """Resolve a leader's shared in-flight future from its job future."""
        exc = future.exception()
        if exc is not None:
            self.verdict_cache.fail(token, exc)
        else:
            self.verdict_cache.complete(token, future.result())

    def _submit(
        self,
        key: str,
        model: ImageClassifier,
        metadata: Optional[Dict[str, Any]],
        query_function: Optional[QueryFunction],
        blocking: bool,
    ) -> Optional[AuditJob]:
        """The one serving path: route → cache lookup/follow → budget slot →
        cache claim → one pool task → harvest.

        A warm hit or a dedup follower returns a completed or chained job
        without taking a slot and never reaches the pool; only a cold leader
        takes a slot and becomes exactly one pool task.  Returns ``None``
        when non-blocking and no budget slot is free.
        """
        cache = self.verdict_cache
        meta = self._begin_trace()
        ids = meta[0]
        with self._trace_scope(ids):
            with get_tracer().span("gateway.route"):
                tenant = self._route_or_provision(
                    metadata if metadata is not None else self._default_metadata(model)
                )
            if cache is not None:
                cache_key = cache.key_for(model, tenant.entry.key_hash, tenant.spec.precision)
                with get_tracer().span("cache.lookup") as span:
                    verdict = cache.lookup(cache_key, key)
                    span.set(hit=verdict is not None)
                if verdict is not None:
                    return self._book(tenant, key, self._completed(verdict), meta)
                shared = cache.follow(cache_key)
                if shared is not None:
                    return self._book(tenant, key, self._chained(shared, key), meta)
            if not self._slots.acquire(blocking=blocking):
                # declined: the entry is re-queued and re-submitted later with
                # fresh coordinates; this attempt's route/lookup spans stay in
                # the trace as roots without an audit span (the work really
                # did run twice)
                return None
            token = None
            if cache is not None:
                claim = cache.begin(cache_key, key)
                if claim[0] != "leader":
                    self._slots.release()
                    future = (
                        self._completed(claim[1])
                        if claim[0] == "verdict"
                        else self._chained(claim[1], key)
                    )
                    return self._book(tenant, key, future, meta)
                token = claim[1]
            task = tenant.task(key, model, query_function)
            if token is not None:
                # the task runs through the cache's store tier for
                # cross-process single flight and write-back
                task = (_cached_audit_task, cache, cache_key, key, *task)
            if ids is not None:
                # outermost wrapper: the worker-side sink must cover the cache
                # read-through too
                task = (_traced_task, TraceContext(*ids), *task)
            try:
                future = self.worker_pool.submit(*task)
            except BaseException as exc:
                self._slots.release()
                if token is not None:
                    cache.fail(token, exc)
                raise
        job = self._book(tenant, key, future, meta)
        # released when the job finishes *computing* (not when it is
        # harvested), so the budget caps concurrent work, not retained results
        future.add_done_callback(lambda _future: self._slots.release())
        if token is not None:
            future.add_done_callback(lambda done: self._finish_claim(token, done))
        return job

    def submit(
        self,
        key: str,
        model: ImageClassifier,
        metadata: Optional[Dict[str, Any]] = None,
        query_function: Optional[QueryFunction] = None,
    ) -> AuditJob:
        """Route one submission to its tenant; blocks at the shared budget.

        ``metadata`` defaults to routing by the model's recorded
        architecture.  The returned job resolves to a plain
        :class:`~repro.runtime.workers.AuditVerdict`; harvest through
        :meth:`as_completed`/:meth:`stream` to get tenant-annotated
        :class:`GatewayVerdict` rows and per-tenant accounting.

        With a :class:`~repro.runtime.verdict_cache.VerdictCache` configured,
        a warm submission returns an already-completed job without blocking
        at the budget, and concurrent submissions of one model fingerprint
        share a single inspection.  ``query_function``, when given, is the
        black-box endpoint the inspection queries.
        """
        return self._submit(key, model, metadata, query_function, blocking=True)

    # -- harvesting ------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Submitted jobs that have not finished computing."""
        with self._lock:
            return sum(1 for future in self._pending if not future.done())

    def _harvest(self, future: Future) -> Optional[GatewayVerdict]:
        with self._lock:
            item = self._pending.pop(future, None)
        if item is None:
            return None  # already harvested by a concurrent consumer
        tenant_id, job, meta = item
        # re-raises task exceptions; the failed job's handle is already
        # dropped, while verdicts of *other* completed jobs stay pending and
        # remain harvestable via as_completed() after the consumer handles
        # the error
        verdict = job.result()
        with self._lock:
            tenant = self._tenants[tenant_id]
            if verdict.is_backdoored:
                tenant.rejected += 1
            else:
                tenant.accepted += 1
            provenance = getattr(verdict, "cache", "cold")
            if provenance == "cold":
                # only cold inspections spend queries; a warm serving's
                # query_count describes the *original* inspection and must
                # not be re-charged (that is the amortisation)
                tenant.query_count += verdict.query_count
                tenant.query_calls += verdict.query_calls
            elif provenance == "dedup":
                tenant.dedup_hits += 1
            else:
                tenant.cache_hits += 1
        self._record_telemetry(meta, tenant_id, verdict, provenance)
        return GatewayVerdict(
            name=verdict.name,
            backdoor_score=verdict.backdoor_score,
            is_backdoored=verdict.is_backdoored,
            prompted_accuracy=verdict.prompted_accuracy,
            query_count=verdict.query_count,
            query_calls=verdict.query_calls,
            cache=provenance,
            tenant=tenant_id,
        )

    def _record_telemetry(
        self,
        meta: _TraceMeta,
        tenant_id: str,
        verdict: AuditVerdict,
        provenance: str,
    ) -> None:
        """Book one harvested verdict: histograms always, spans when tracing.

        The audit span is recorded complete — its start was taken at submit,
        its end is now — and the worker's shipped spans are rebased from
        task-relative offsets onto this process's clock, anchored so the
        latest one ends at harvest (the leading gap under the audit span is
        the queue wait).  A warm verdict carries no spans: its inspection
        happened in some earlier trace, which is exactly what the cache
        provenance already says.
        """
        ids, started = meta
        end = now()
        self.metrics.histogram("gateway.audit_seconds", tenant=tenant_id).observe(
            end - started
        )
        self.metrics.histogram(
            "gateway.queries_per_verdict", buckets=QUERY_BUCKETS, tenant=tenant_id
        ).observe(verdict.query_count if provenance == "cold" else 0)
        shipped = getattr(verdict, "spans", None)
        if ids is not None:
            tracer = get_tracer()
            tracer.record(
                "gateway.audit",
                started,
                end,
                trace_id=ids[0],
                span_id=ids[1],
                tenant=tenant_id,
                key=verdict.name,
                cache=provenance,
                queries=verdict.query_count if provenance == "cold" else 0,
                calls=verdict.query_calls if provenance == "cold" else 0,
            )
            if provenance == "cold" and shipped:
                for span in rebased(shipped, end):
                    tracer.record(
                        span.name,
                        span.start,
                        span.end,
                        trace_id=span.trace_id,
                        span_id=span.span_id,
                        parent_id=span.parent_id,
                        **span.attrs,
                    )
        if shipped:
            verdict.spans = []  # consumed; retained verdicts stay span-free

    def as_completed(self) -> Iterator[GatewayVerdict]:
        """Merge every tenant's submitted jobs into one completion-ordered
        stream of tenant-annotated verdicts; ends when the queue drains."""
        while True:
            with self._lock:
                pending = list(self._pending)
            if not pending:
                return
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            # preserve submission order among simultaneously-done jobs so the
            # serial backend yields deterministically
            for future in [f for f in pending if f in done]:
                verdict = self._harvest(future)
                if verdict is not None:
                    yield verdict

    # -- one-shot streaming ----------------------------------------------------
    @staticmethod
    def _normalize(submission: Submission) -> Tuple[str, ImageClassifier, Optional[Dict]]:
        if len(submission) == 2:
            key, model = submission  # type: ignore[misc]
            return key, model, None
        key, model, metadata = submission  # type: ignore[misc]
        return key, model, metadata

    def stream(
        self,
        submissions: Iterable[Submission],
        query_functions: Optional[Dict[str, QueryFunction]] = None,
    ) -> Iterator[GatewayVerdict]:
        """Screen a mixed catalogue, yielding verdicts as models finish.

        ``submissions`` is an iterable of ``(key, model)`` or
        ``(key, model, metadata)``.  At most ``max_in_flight`` jobs are
        outstanding across all tenants; slots freed by finishing jobs are
        refilled before each yield, so the workers stay fed while the
        consumer processes verdicts.  Verdicts are bit-identical to
        inspecting each entry with its tenant's detector under the same key;
        only arrival order differs.  ``query_functions`` maps a key to the
        black-box endpoint its inspection queries.
        """
        # the iterable is consumed lazily — at most one entry is pulled ahead
        # of the available budget, so a generator that materialises each
        # model on demand streams in constant memory
        iterator = iter(submissions)
        lookahead: deque = deque()  # pulled but not yet submitted (no slot)
        exhausted = False

        def pull():
            nonlocal exhausted
            if lookahead:
                return lookahead.popleft()
            if exhausted:
                return None
            try:
                return self._normalize(next(iterator))
            except StopIteration:
                exhausted = True
                return None

        def any_done() -> bool:
            with self._lock:
                return any(future.done() for future in self._pending)

        def top_up() -> None:
            # stop early once results are waiting: on an inline (serial)
            # executor every submission completes synchronously, and draining
            # between submissions keeps time-to-first-verdict at one audit
            while not any_done():
                entry = pull()
                if entry is None:
                    return
                key, model, metadata = entry
                query_function = (
                    query_functions.get(key) if query_functions is not None else None
                )
                # warm hits and dedup followers need no budget slot; only a
                # cold leader does, and declining (no slot) re-queues
                if self._submit(key, model, metadata, query_function, blocking=False) is None:
                    lookahead.append(entry)
                    return

        while True:
            top_up()
            with self._lock:
                pending = list(self._pending)
            if not pending:
                if lookahead or not exhausted:
                    continue
                return
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in [f for f in pending if f in done]:
                verdict = self._harvest(future)
                # refill the freed slot before yielding so the workers stay
                # fed while the consumer processes this verdict — but a
                # failing submission (e.g. an unroutable queued entry) must
                # not swallow the verdict already harvested and counted
                refill_error: Optional[BaseException] = None
                try:
                    top_up()
                except BaseException as exc:
                    refill_error = exc
                if verdict is not None:
                    yield verdict
                if refill_error is not None:
                    raise refill_error

    # -- dashboard -------------------------------------------------------------
    def _store_stats(self) -> Dict[str, Dict[str, int]]:
        store = self.registry.store
        root = str(store.root) if store.root is not None else "<disabled>"
        return {root: {"hits": store.hits, "misses": store.misses}}

    def stats(self) -> Dict[str, Any]:
        """The serving dashboard in one snapshot.

        Per-tenant verdict counts, query budgets and amortised
        queries-per-verdict, the registry's hit/fit counters, the store's
        hit/miss tallies keyed by its root, the verdict cache's
        hit/miss/dedup counters (when caching is on) and the gateway's own
        in-flight gauge.
        """

        def amortized(queries: int, verdicts: int) -> Optional[float]:
            # queries actually spent per verdict served; the cache drives
            # this below the cold-path cost as redundant traffic hits
            return (queries / verdicts) if verdicts else None

        with self._lock:
            tenants = {
                tenant.tenant_id: {
                    "defense": tenant.defense,
                    "architecture": tenant.spec.architecture,
                    "precision": tenant.spec.precision,
                    "family": tenant.family,
                    "detector_source": tenant.entry.source,
                    "accepted": tenant.accepted,
                    "rejected": tenant.rejected,
                    "query_count": tenant.query_count,
                    "query_calls": tenant.query_calls,
                    "cache_hits": tenant.cache_hits,
                    "dedup_hits": tenant.dedup_hits,
                    "provisioned": tenant.provisioned,
                    "amortized_queries_per_verdict": amortized(
                        tenant.query_count, tenant.accepted + tenant.rejected
                    ),
                }
                for tenant in self._tenants.values()
            }
            in_flight = sum(1 for future in self._pending if not future.done())
            fleet_queries = sum(t.query_count for t in self._tenants.values())
            fleet_verdicts = sum(t.accepted + t.rejected for t in self._tenants.values())
        return {
            "tenants": tenants,
            "registry": self.registry.stats(),
            "store": self._store_stats(),
            "verdict_cache": (
                self.verdict_cache.stats() if self.verdict_cache is not None else None
            ),
            "amortized_queries_per_verdict": amortized(fleet_queries, fleet_verdicts),
            "worker_pool": self.worker_pool.stats(),
            "telemetry": self._telemetry_stats(),
            "in_flight": in_flight,
            "max_in_flight": self.max_in_flight,
        }

    def _telemetry_stats(self) -> Dict[str, Any]:
        """The telemetry sub-dashboard: tracer state + the merged fleet metrics.

        Folds the gateway's own histograms with every component registry.
        """
        return {
            "enabled": self._telemetry,
            "spans_recorded": get_tracer().recorded,
            "metrics": merge_snapshots(
                self.metrics.snapshot(),
                self.registry.metrics.snapshot(),
                self.registry.store.metrics.snapshot(),
                self.worker_pool.metrics.snapshot(),
                *(
                    (self.verdict_cache.metrics.snapshot(),)
                    if self.verdict_cache is not None
                    else ()
                ),
            ),
        }

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut the shared worker pool down; waits for every outstanding task."""
        self.worker_pool.close()

    def __enter__(self) -> "AuditGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AuditGateway(tenants={sorted(self._tenants)}, "
            f"max_in_flight={self.max_in_flight})"
        )
