"""One benchmark pass over one workload, in the calling interpreter.

The pass stands the gateway up (``setup_s``), drives it with a one-thread
closed loop of ``CONCURRENCY`` outstanding submissions for at least the
requested seconds, then checks every verdict.  It uses only the public
``AuditGateway`` / ``DetectorRegistry`` / ``BpromDetector`` API; the traced
pass turns the existing ``repro.obs`` tracer on through
``RuntimeConfig(telemetry=True)`` and adds timers at the submit and query
seams, on this side of the API.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import tempfile
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.obs import get_tracer
from repro.obs.export import export_jsonl, export_metrics
from repro.obs.report import percentile
from repro.runtime import AuditGateway, DetectorRegistry

from auditbench import WORKERS, layers
from auditbench.metrics import tail
from auditbench.workloads import (
    CONCURRENCY,
    MAX_IN_FLIGHT,
    REINSPECT,
    Submission,
    TenantData,
    Workload,
    load_inputs,
    submissions,
)


class TimedQuery:
    """The traced pass's query seam: the upload's own ``predict_proba``, timed.

    One instance per submission, so the worker thread that runs its audit is
    the only writer.
    """

    def __init__(self, model: Any) -> None:
        self._predict = model.predict_proba
        self.seconds = 0.0
        self.images = 0

    def __call__(self, images: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        probabilities = self._predict(images)
        self.seconds += time.perf_counter() - start
        self.images += int(images.shape[0])
        return probabilities


class InjectedFailure(RuntimeError):
    """Raised by the query function of an upload a test marks as failing."""


def _failing_query(images: np.ndarray) -> np.ndarray:
    raise InjectedFailure("injected query failure")


@dataclass
class Harvest:
    """One harvested verdict with its benchmark-side timings."""

    submission: Submission
    latency: float
    score: float
    label: bool
    query_count: int
    query_calls: int
    cache: str
    #: traced pass only: time in and images through the query seam
    query_seconds: float = 0.0
    query_images: int = 0

    @property
    def key(self) -> str:
        return self.submission.key


@dataclass
class _Outstanding:
    submission: Submission
    started: float
    future: Future
    query: Optional[TimedQuery]


def _status_mb(field: str) -> float:
    """A ``VmRSS``/``VmHWM``-style line of ``/proc/self/status``, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/self/status has no {field} line")


def reset_peak_rss() -> float:
    """Restart the kernel's peak-RSS mark (``VmHWM``) at the current RSS, so
    the peak read later excludes the benchmark's own input preparation;
    returns that RSS in MB."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    return _status_mb("VmRSS")


def _runtime(store: str, traced: bool) -> RuntimeConfig:
    return RuntimeConfig(
        workers=WORKERS,
        backend="thread",
        cache_dir=store,
        verdict_cache=True,
        telemetry=traced,
    )


def stand_up(
    runtime: RuntimeConfig, target: Tuple[Any, Any], tenants: Dict[str, TenantData]
) -> AuditGateway:
    """A fresh registry and gateway with every tenant registered."""
    gateway = AuditGateway(registry=DetectorRegistry(runtime=runtime), max_in_flight=MAX_IN_FLIGHT)
    try:
        for data in tenants.values():
            gateway.register_tenant(data.spec.name, data.detector_spec(), data.reserved, *target)
    except BaseException:
        gateway.close()
        raise
    return gateway


def _take(outstanding: List[_Outstanding], match: Callable[[_Outstanding], bool]) -> _Outstanding:
    for position, entry in enumerate(outstanding):
        if match(entry):
            return outstanding.pop(position)
    raise RuntimeError("harvested a result the client never submitted")


def drive(
    gateway: AuditGateway,
    workload: Workload,
    tenants: Dict[str, TenantData],
    seed: int,
    seconds: float,
    traced: bool,
    fail_index: Optional[int] = None,
) -> Dict[str, Any]:
    """The closed loop: submit ``CONCURRENCY``, then one per harvested result.

    Submission stops once ``seconds`` have passed, at least ``min_verdicts``
    were submitted and the count is a whole number of blocks; the loop then
    drains.  A failed audit is counted and harvesting resumes, because the
    gateway keeps every other job harvestable.
    """
    source = submissions(workload, seed)
    outstanding: List[_Outstanding] = []
    harvests: List[Harvest] = []
    failures: List[Tuple[Submission, str]] = []
    submit_seconds: List[float] = []
    submitted = 0
    start = time.perf_counter()

    def may_submit() -> bool:
        if submitted % workload.block:
            return True
        return submitted < workload.min_verdicts or time.perf_counter() - start < seconds

    def top_up() -> None:
        nonlocal submitted
        while len(outstanding) < CONCURRENCY and may_submit():
            submission = next(source)
            model = tenants[submission.tenant.name].upload(submission.upload)
            timed = TimedQuery(model) if traced else None
            query = _failing_query if submission.index == fail_index else timed
            started = time.perf_counter()
            job = gateway.submit(submission.key, model, query_function=query)
            submit_seconds.append(time.perf_counter() - started)
            outstanding.append(_Outstanding(submission, started, job.future, timed))
            submitted += 1

    cpu_start = os.times()
    top_up()
    results = gateway.as_completed()
    while True:
        try:
            verdict = next(results)
        except StopIteration:
            break
        except Exception as exc:  # a failed audit: count it and keep harvesting
            entry = _take(outstanding, lambda o: o.future.done() and o.future.exception() is exc)
            failures.append((entry.submission, repr(exc)))
            top_up()
            results = gateway.as_completed()
            continue
        now = time.perf_counter()
        entry = _take(
            outstanding,
            lambda o: o.submission.key == verdict.name
            and o.future.done()
            and o.future.exception() is None,
        )
        harvests.append(
            Harvest(
                submission=entry.submission,
                latency=now - entry.started,
                score=verdict.backdoor_score,
                label=bool(verdict.is_backdoored),
                query_count=verdict.query_count,
                query_calls=verdict.query_calls,
                cache=verdict.cache,
                query_seconds=entry.query.seconds if entry.query else 0.0,
                query_images=entry.query.images if entry.query else 0,
            )
        )
        top_up()
    if outstanding:
        raise RuntimeError("the gateway stopped yielding before every submission was harvested")
    elapsed = time.perf_counter() - start
    cpu_end = os.times()
    cpu = sum(cpu_end[:4]) - sum(cpu_start[:4])
    return {
        "harvests": harvests,
        "failures": failures,
        "submit_seconds": submit_seconds,
        "submitted": submitted,
        "elapsed": elapsed,
        "cpu_seconds": cpu,
    }


def verdict_digest(harvests: List[Harvest], first: int) -> str:
    """sha256 over the sorted (key, repr(score), label) of submissions < ``first``."""
    rows = sorted(
        {(h.key, repr(h.score), h.label) for h in harvests if h.submission.index < first}
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def check_repeats(harvests: List[Harvest]) -> List[str]:
    """Every repeat of a key must return exactly its first submission's verdict."""
    first: Dict[str, Tuple[str, bool, int]] = {}
    errors = []
    for harvest in sorted(harvests, key=lambda h: h.submission.index):
        observed = (repr(harvest.score), harvest.label, harvest.query_count)
        expected = first.setdefault(harvest.key, observed)
        if observed != expected:
            errors.append(f"{harvest.key}: repeat returned {observed}, first was {expected}")
    return errors


def check_reinspection(
    store: str,
    target: Tuple[Any, Any],
    tenants: Dict[str, TenantData],
    harvests: List[Harvest],
    count: int,
) -> List[str]:
    """Re-inspect ``count`` uploads per tenant serially on a store-loaded
    detector; score, label and query count must equal the gateway's."""
    registry = DetectorRegistry(runtime=_runtime(store, traced=False))
    errors = []
    for name, data in tenants.items():
        entry = registry.get_or_fit(data.detector_spec(), data.reserved, *target)
        if entry.source != "store":
            errors.append(f"{name}: re-inspection detector came from {entry.source!r}, not the store")
        served = {h.submission.upload: h for h in harvests if h.submission.tenant.name == name}
        for upload in sorted(served)[:count]:
            harvest = served[upload]
            result = entry.detector.inspect(data.upload(upload), seed_key=harvest.key)
            observed = (repr(result.backdoor_score), bool(result.is_backdoored), result.query_count)
            expected = (repr(harvest.score), harvest.label, harvest.query_count)
            if observed != expected:
                errors.append(f"{harvest.key}: serial re-inspection gave {observed}, gateway {expected}")
    return errors


def run_leg(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    work_dir: Path,
    out_dir: Optional[Path] = None,
    fail_index: Optional[int] = None,
    reinspect: int = REINSPECT,
) -> Dict[str, Any]:
    """Set up, drive and check one workload; the raw result of one pass."""
    tracer = get_tracer()
    if not traced:
        tracer.disable()
    tracer.drain()
    target, tenants = load_inputs(workload, seed)
    Path(work_dir).mkdir(parents=True, exist_ok=True)

    fit_phases: List[List[Any]] = []
    if workload.fleet:
        store = tempfile.mkdtemp(prefix="store-", dir=work_dir)
        stand_up(_runtime(store, traced), target, tenants).close()
        fit_phases.append(tracer.drain())
    inputs_rss_mb = reset_peak_rss()
    stand_ups: List[Tuple[float, List[Any]]] = []
    gateway: Optional[AuditGateway] = None
    for _ in range(workload.setups):
        if gateway is not None:
            gateway.close()
        if not workload.fleet:
            store = tempfile.mkdtemp(prefix="store-", dir=work_dir)
        start = time.perf_counter()
        gateway = stand_up(_runtime(store, traced), target, tenants)
        stand_ups.append((time.perf_counter() - start, tracer.drain()))
    if not workload.fleet:
        fit_phases = [spans for _seconds, spans in stand_ups]

    try:
        loop = drive(gateway, workload, tenants, seed, seconds, traced, fail_index)
        stats = gateway.stats()
    finally:
        gateway.close()
    peak_rss_mb = _status_mb("VmHWM")
    timed_spans = tracer.drain()
    tracer.disable()

    harvests: List[Harvest] = loop["harvests"]
    cold = [h for h in harvests if h.cache == "cold"]
    errors = check_repeats(harvests)
    tasks = stats["worker_pool"]["tasks"]
    if tasks != len(cold) + len(loop["failures"]):
        errors.append(
            f"worker pool ran {tasks} tasks for {len(cold)} cold verdicts "
            f"and {len(loop['failures'])} failures"
        )
    errors += check_reinspection(store, target, tenants, harvests, reinspect)

    latencies = [h.latency for h in harvests]
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "attempted": loop["submitted"],
        "failed": len(loop["failures"]),
        "failures": [f"{s.key}: {message}" for s, message in loop["failures"]],
        "errors": errors,
        "digest": verdict_digest(harvests, workload.min_verdicts),
        "metrics": {
            "setup_s": statistics.median(took for took, _spans in stand_ups),
            "verdicts_per_s": len(harvests) / loop["elapsed"],
            "audit_p50_s": percentile(latencies, 50.0),
            "audit_p90_s": percentile(latencies, 90.0),
            "queries_per_verdict": sum(h.query_count for h in cold) / len(harvests),
            "peak_rss_mb": peak_rss_mb,
        },
        "inputs_rss_mb": inputs_rss_mb,
        "tail": tail(latencies),
        "cpu_s_per_verdict": loop["cpu_seconds"] / len(harvests),
        "verdicts": len(harvests),
    }
    if traced:
        result["layers"], result["breakdowns"] = layers.per_layer(
            timed_spans, fit_phases, stand_ups, loop["submit_seconds"], harvests, stats
        )
        if out_dir is not None:
            spans = [s for phase in fit_phases for s in phase] if workload.fleet else []
            spans += [s for _seconds, phase in stand_ups for s in phase] + timed_spans
            result["trace"] = export_jsonl(spans, str(Path(out_dir) / f"TRACE_{workload.name}.jsonl"))
            export_metrics(
                stats["telemetry"]["metrics"], str(Path(out_dir) / f"METRICS_{workload.name}.json")
            )
    return result
