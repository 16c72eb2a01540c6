"""Multi-tenant gateway vs. sequential per-tenant audits: TTFV and throughput.

Stands two tenants up through the :class:`~repro.runtime.registry.
DetectorRegistry` (two architecture families on two suspicious tasks), builds
a mixed vendor catalogue, then screens it twice:

* **baseline** — one batch ``BpromDetector.inspect_many(keys=...)`` fan-out
  per tenant on a worker pool opened from the runtime, run back to back: no
  verdict until the first tenant's whole batch finishes, and the second
  tenant waits for the first;
* **gateway** — one ``AuditGateway.stream`` over the interleaved submissions:
  routing by architecture family, shared in-flight budget, merged
  completion-ordered verdicts;
* **verdict cache** — a zipf-distributed redundant fleet workload (production
  audit traffic resubmits the same popular models over and over) screened
  twice: through an uncached gateway (every submission pays the full
  inspection) and through a cache-enabled gateway (warm submissions are
  served from the fingerprint-keyed verdict cache for free).  Reports the
  cache hit-rate, the amortised queries-per-verdict and the warm-vs-cold
  verdicts/s speedup.
* **worker-pool backends** — the same interleaved workload screened through a
  ``backend="thread"`` and a ``backend="process"`` gateway over one warm
  store (process workers hydrate the fitted detectors by registry key — zero
  refits), both with telemetry off so ``process_speedup`` compares backends
  only.  Verdicts must be **bit-identical** across backends (exact float
  equality, not a tolerance), and the report carries ``process_speedup``
  plus ``cpu_count`` so the versioned baseline can gate the multi-core win
  on runners that actually have the cores;
* **telemetry** — the process leg again with telemetry on: verdicts must be
  bit-identical to the telemetry-off process leg, and its trace and metrics
  are exported and rendered by the flight recorder.

Correctness is asserted on every run — gateway verdicts must match the
per-tenant baseline to <= 1e-9 with identical labels, and cached verdicts
must match the uncached path exactly — so the benchmark doubles as the
acceptance check for the gateway's equivalence property.  Results are
written as machine-readable JSON so the perf trajectory can be tracked
across commits.

Run with:  PYTHONPATH=src python benchmarks/bench_gateway.py \
               [--profile tiny|fast|bench] [--arch-a mlp] [--arch-b resnet18] \
               [--models 4] [--workers 2] [--max-in-flight 4] \
               [--zipf-submissions 48] [--zipf-exponent 1.1] \
               [--json BENCH_gateway.json]
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.config import RuntimeConfig, get_profile
from repro.datasets.registry import load_dataset
from repro.models.registry import build_classifier
from repro.obs import get_tracer
from repro.obs.export import export_jsonl, export_metrics
from repro.obs.report import queries_per_verdict, render_report, stage_summary
from repro.runtime import AuditGateway, DetectorRegistry
from repro.runtime.registry import DetectorSpec


def build_catalogue(profile, architecture, train, count, seed):
    catalogue = {}
    for index in range(count):
        name = f"{architecture}-vendor-{index}"
        model = build_classifier(
            architecture, train.num_classes, image_size=profile.image_size,
            rng=seed + index, name=name,
        )
        model.fit(train, profile.classifier, rng=seed + 100 + index)
        catalogue[name] = model
    return catalogue


def zipf_draws(names, count, exponent, seed):
    """A redundant fleet workload: ``count`` submissions, popularity ~ 1/rank^s."""
    ranks = np.arange(1, len(names) + 1, dtype=np.float64)
    probabilities = ranks ** -float(exponent)
    probabilities /= probabilities.sum()
    rng = np.random.default_rng(seed)
    return [names[i] for i in rng.choice(len(names), size=count, p=probabilities)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="tiny", help="experiment profile preset")
    parser.add_argument("--arch-a", default="mlp", help="tenant A architecture")
    parser.add_argument("--arch-b", default="resnet18", help="tenant B architecture")
    parser.add_argument("--models", type=int, default=4, help="catalogue size per tenant")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--backend", default="thread", choices=("thread", "process"))
    parser.add_argument("--max-in-flight", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--zipf-submissions", type=int, default=None,
        help="redundant-workload length (default: 8x the distinct catalogue)",
    )
    parser.add_argument(
        "--zipf-exponent", type=float, default=1.1,
        help="zipf popularity exponent for the redundant workload",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="registry store root (default: a fresh temp dir, i.e. a cold fit)",
    )
    parser.add_argument(
        "--json", default="BENCH_gateway.json",
        help="output path for machine-readable results",
    )
    args = parser.parse_args()

    profile = get_profile(args.profile)
    scratch = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="bench-gateway-")
        cache_dir = str(Path(scratch.name) / "store")
    runtime = RuntimeConfig(workers=args.workers, backend=args.backend, cache_dir=cache_dir)

    target_train, target_test = load_dataset("stl10", profile, seed=args.seed)
    train_a, test_a = load_dataset("cifar10", profile, seed=args.seed)
    train_b, test_b = load_dataset("svhn", profile, seed=args.seed)
    print(
        f"profile={profile.name} tenants=({args.arch_a} on cifar10, {args.arch_b} on svhn) "
        f"models={args.models}/tenant workers={args.workers} backend={args.backend} "
        f"cores={os.cpu_count() or 1}"
    )

    print("standing tenants up through the detector registry ...")
    registry = DetectorRegistry(runtime=runtime)
    spec_a = DetectorSpec(defense="bprom", profile=profile, architecture=args.arch_a, seed=args.seed)
    spec_b = DetectorSpec(defense="bprom", profile=profile, architecture=args.arch_b, seed=args.seed)
    start = time.perf_counter()
    entry_a = registry.get_or_fit(spec_a, test_a, target_train, target_test)
    entry_b = registry.get_or_fit(spec_b, test_b, target_train, target_test)
    registry_s = time.perf_counter() - start
    print(f"  tenants ready in {registry_s:6.2f}s (A: {entry_a.source}, B: {entry_b.source})")

    print(f"building {2 * args.models} vendor models ...")
    catalogue_a = build_catalogue(profile, args.arch_a, train_a, args.models, seed=1000)
    catalogue_b = build_catalogue(profile, args.arch_b, train_b, args.models, seed=2000)

    print("baseline (two sequential inspect_many runs):")
    # each call fans out on a pool opened from the registry's runtime
    start = time.perf_counter()
    report_a = entry_a.detector.inspect_many(list(catalogue_a.values()), keys=list(catalogue_a))
    baseline_first_s = time.perf_counter() - start  # nothing lands before batch A ends
    report_b = entry_b.detector.inspect_many(list(catalogue_b.values()), keys=list(catalogue_b))
    baseline_total_s = time.perf_counter() - start
    print(f"  total {baseline_total_s:8.2f}s   first verdict {baseline_first_s:8.2f}s")

    print("gateway (merged multi-tenant stream):")
    with AuditGateway(registry=registry, max_in_flight=args.max_in_flight) as gateway:
        gateway.register_tenant("tenant-a", spec_a, test_a, target_train, target_test)
        gateway.register_tenant("tenant-b", spec_b, test_b, target_train, target_test)
        # interleave tenants so routing alternates and both pools stay busy
        submissions = [
            item
            for pair in zip(catalogue_a.items(), catalogue_b.items())
            for item in pair
        ]
        streamed = []
        first_verdict_s = None
        start = time.perf_counter()
        for verdict in gateway.stream(submissions):
            if first_verdict_s is None:
                first_verdict_s = time.perf_counter() - start
            streamed.append(verdict)
        gateway_total_s = time.perf_counter() - start
        stats = gateway.stats()
    print(f"  total {gateway_total_s:8.2f}s   first verdict {first_verdict_s:8.2f}s")

    expected = {
        **dict(zip(catalogue_a, report_a)),
        **dict(zip(catalogue_b, report_b)),
    }
    by_tenant = {"tenant-a": set(catalogue_a), "tenant-b": set(catalogue_b)}
    assert len(streamed) == len(expected)
    max_deviation = 0.0
    for verdict in streamed:
        reference = expected[verdict.name]
        deviation = abs(verdict.backdoor_score - reference.backdoor_score)
        max_deviation = max(max_deviation, deviation)
        assert deviation <= 1e-9, (verdict.name, deviation)
        assert verdict.is_backdoored == reference.is_backdoored, verdict.name
        assert verdict.name in by_tenant[verdict.tenant], verdict.name
    print(f"  gateway verdicts match per-tenant audits (max deviation {max_deviation:.2e})")

    total_models = 2 * args.models

    def backend_leg(backend_runtime):
        """Screen the interleaved workload through a fresh gateway; returns
        (verdicts by key, wall seconds, gateway stats)."""
        # a fresh registry over the same store: detectors warm-load, and the
        # process pool's workers hydrate from the same artifacts by key
        backend_registry = DetectorRegistry(runtime=backend_runtime)
        with AuditGateway(
            registry=backend_registry, max_in_flight=args.max_in_flight
        ) as backend_gateway:
            backend_gateway.register_tenant("tenant-a", spec_a, test_a, target_train, target_test)
            backend_gateway.register_tenant("tenant-b", spec_b, test_b, target_train, target_test)
            # fresh model copies per run: concurrent inspections must not share
            # forward-pass state, and the process backend pickles each upload
            workload = [(name, copy.deepcopy(model)) for name, model in submissions]
            start = time.perf_counter()
            verdicts = {v.name: v for v in backend_gateway.stream(workload)}
            elapsed = time.perf_counter() - start
            leg_stats = backend_gateway.stats()
        pool_stats = leg_stats["worker_pool"]
        print(
            f"  total {elapsed:8.2f}s "
            f"({total_models / max(elapsed, 1e-9):.2f} verdicts/s, "
            f"pool {pool_stats['workers']}x{pool_stats['backend']}, "
            f"{pool_stats['tasks']} tasks)"
        )
        return verdicts, elapsed, leg_stats

    def assert_bit_identical(verdicts, reference):
        # bit-identity, not a tolerance: hydration round-trips exactly, the
        # per-key seed derivation is shared and telemetry only observes, so
        # any drift is a real bug
        assert set(verdicts) == set(reference)
        for name, expected_verdict in reference.items():
            verdict = verdicts[name]
            assert verdict.backdoor_score == expected_verdict.backdoor_score, name
            assert verdict.is_backdoored == expected_verdict.is_backdoored, name
            assert verdict.query_count == expected_verdict.query_count, name

    print("worker-pool backends (thread vs process, one warm store, telemetry off):")
    backend_runs = {}
    for backend_name in ("thread", "process"):
        print(f"  {backend_name}:")
        backend_runs[backend_name] = backend_leg(
            runtime.with_overrides(backend=backend_name, telemetry=False)
        )
    thread_verdicts, thread_s, _ = backend_runs["thread"]
    process_verdicts, process_s, _ = backend_runs["process"]
    assert_bit_identical(process_verdicts, thread_verdicts)
    process_speedup = thread_s / max(process_s, 1e-9)
    cpu_count = os.cpu_count() or 1
    print(
        f"  process verdicts bit-identical to thread; "
        f"process speedup {process_speedup:.2f}x on {cpu_count} core(s)"
    )

    print("telemetry (process backend, telemetry on):")
    telemetry_verdicts, telemetry_s, telemetry_stats = backend_leg(
        runtime.with_overrides(backend="process", telemetry=True)
    )
    # harvest the trace before the zipf sections start (the tracer is
    # process-global and stays enabled once a gateway turned it on)
    tracer = get_tracer()
    trace_spans = tracer.drain()
    tracer.disable()
    assert_bit_identical(telemetry_verdicts, process_verdicts)
    telemetry_slowdown = telemetry_s / max(process_s, 1e-9)
    print(
        f"  verdicts bit-identical with telemetry on and off; "
        f"telemetry slowdown {telemetry_slowdown:.2f}x"
    )

    trace_path = Path(args.json).with_name("TRACE_gateway.jsonl")
    metrics_path = Path(args.json).with_name("METRICS_gateway.json")
    export_jsonl(trace_spans, str(trace_path))
    export_metrics(telemetry_stats["telemetry"]["metrics"], str(metrics_path))
    stage_stats = stage_summary(trace_spans)
    economy = queries_per_verdict(trace_spans)
    print(render_report(trace_spans, top=2, title="process-backend flight recorder"))
    print(f"  trace -> {trace_path}   metrics -> {metrics_path}")

    merged = {**catalogue_a, **catalogue_b}
    submission_count = args.zipf_submissions
    if submission_count is None:
        submission_count = 8 * len(merged)
    draws = zipf_draws(sorted(merged), submission_count, args.zipf_exponent, args.seed)
    distinct = len(set(draws))
    print(
        f"redundant fleet workload: {submission_count} zipf submissions "
        f"(s={args.zipf_exponent}) over {distinct} distinct models"
    )

    def uploads():
        # every submission is its own upload: a fresh copy of the weights, as
        # a fleet of independent vendors would produce (and model forward
        # passes are not safe to share across concurrent inspections);
        # materialised outside the timed region — upload ingestion is not the
        # serving path under measurement
        return [(name, copy.deepcopy(merged[name])) for name in draws]

    print("  uncached gateway (every submission pays the full inspection):")
    with AuditGateway(registry=registry, max_in_flight=args.max_in_flight) as uncached:
        uncached.register_tenant("tenant-a", spec_a, test_a, target_train, target_test)
        uncached.register_tenant("tenant-b", spec_b, test_b, target_train, target_test)
        workload = uploads()
        start = time.perf_counter()
        uncached_verdicts = list(uncached.stream(workload))
        uncached_zipf_s = time.perf_counter() - start
        uncached_queries = sum(
            t["query_count"] for t in uncached.stats()["tenants"].values()
        )
    # repeated submissions of one key are deterministic, so the first
    # occurrence is the reference every cached serving must match exactly
    reference = {}
    for verdict in uncached_verdicts:
        reference.setdefault(verdict.name, verdict)
    print(
        f"    total {uncached_zipf_s:8.2f}s "
        f"({submission_count / max(uncached_zipf_s, 1e-9):.2f} verdicts/s, "
        f"{uncached_queries} queries)"
    )

    print("  cached gateway (fingerprint-keyed verdict memoisation):")
    with AuditGateway(
        registry=registry,
        runtime=runtime.with_overrides(verdict_cache=True),
        max_in_flight=args.max_in_flight,
    ) as cached:
        cached.register_tenant("tenant-a", spec_a, test_a, target_train, target_test)
        cached.register_tenant("tenant-b", spec_b, test_b, target_train, target_test)
        workload = uploads()
        start = time.perf_counter()
        cached_verdicts = list(cached.stream(workload))
        cached_zipf_s = time.perf_counter() - start
        cached_stats = cached.stats()
    cache_stats = cached_stats["verdict_cache"]
    cached_queries = sum(
        t["query_count"] for t in cached_stats["tenants"].values()
    )
    warm_deviation = 0.0
    assert len(cached_verdicts) == submission_count
    for verdict in cached_verdicts:
        expected_verdict = reference[verdict.name]
        deviation = abs(verdict.backdoor_score - expected_verdict.backdoor_score)
        warm_deviation = max(warm_deviation, deviation)
        assert deviation <= 1e-9, (verdict.name, deviation)
        assert verdict.is_backdoored == expected_verdict.is_backdoored, verdict.name
    cache_hit_rate = cache_stats["hit_rate"]
    cache_speedup = uncached_zipf_s / max(cached_zipf_s, 1e-9)
    print(
        f"    total {cached_zipf_s:8.2f}s "
        f"({submission_count / max(cached_zipf_s, 1e-9):.2f} verdicts/s, "
        f"{cached_queries} queries, hit-rate {cache_hit_rate:.3f}, "
        f"{cache_stats['inspections']} inspections)"
    )
    print(
        f"    cached verdicts match the uncached path "
        f"(max deviation {warm_deviation:.2e}); cache speedup {cache_speedup:.2f}x"
    )

    results = {
        "benchmark": "gateway",
        "profile": profile.name,
        "arch_a": args.arch_a,
        "arch_b": args.arch_b,
        "models_per_tenant": args.models,
        "workers": args.workers,
        "backend": args.backend,
        "max_in_flight": stats["max_in_flight"],
        "registry_standup_seconds": registry_s,
        "registry": stats["registry"],
        "baseline_total_seconds": baseline_total_s,
        "baseline_first_verdict_seconds": baseline_first_s,
        "gateway_total_seconds": gateway_total_s,
        "gateway_first_verdict_seconds": first_verdict_s,
        "first_verdict_speedup": baseline_first_s / max(first_verdict_s, 1e-9),
        "baseline_verdicts_per_second": total_models / max(baseline_total_s, 1e-9),
        "gateway_verdicts_per_second": total_models / max(gateway_total_s, 1e-9),
        "max_score_deviation": max_deviation,
        "verdicts_match": True,
        "cpu_count": cpu_count,
        "thread_total_seconds": thread_s,
        "process_total_seconds": process_s,
        "thread_verdicts_per_second": total_models / max(thread_s, 1e-9),
        "process_verdicts_per_second": total_models / max(process_s, 1e-9),
        "process_speedup": process_speedup,
        "process_verdicts_bit_identical": True,
        "telemetry_total_seconds": telemetry_s,
        "telemetry_slowdown": telemetry_slowdown,
        "zipf_submissions": submission_count,
        "zipf_exponent": args.zipf_exponent,
        "zipf_distinct_models": distinct,
        "cache_hit_rate": cache_hit_rate,
        "cache_inspections": cache_stats["inspections"],
        "cache_dedup_hits": cache_stats["dedup_hits"],
        "uncached_queries": uncached_queries,
        "cached_queries": cached_queries,
        "uncached_amortized_queries_per_verdict": uncached_queries / submission_count,
        "cached_amortized_queries_per_verdict": cached_queries / submission_count,
        "uncached_zipf_verdicts_per_second": submission_count / max(uncached_zipf_s, 1e-9),
        "cached_zipf_verdicts_per_second": submission_count / max(cached_zipf_s, 1e-9),
        "cache_speedup": cache_speedup,
        "max_warm_score_deviation": warm_deviation,
        "telemetry": {
            "spans": len(trace_spans),
            "trace": trace_path.name,
            "metrics": metrics_path.name,
            "stages": {
                name: {
                    "count": int(summary["count"]),
                    "p50": summary["p50"],
                    "p95": summary["p95"],
                }
                for name, summary in stage_stats.items()
            },
            "amortized_queries_per_verdict": economy["amortized_queries_per_verdict"],
        },
    }
    with open(args.json, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(
        f"time-to-first-verdict speedup {results['first_verdict_speedup']:.2f}x, "
        f"{results['baseline_verdicts_per_second']:.2f} -> "
        f"{results['gateway_verdicts_per_second']:.2f} verdicts/s; "
        f"verdict cache: hit-rate {cache_hit_rate:.3f}, "
        f"{results['uncached_zipf_verdicts_per_second']:.2f} -> "
        f"{results['cached_zipf_verdicts_per_second']:.2f} verdicts/s "
        f"({cache_speedup:.2f}x), "
        f"{results['uncached_amortized_queries_per_verdict']:.1f} -> "
        f"{results['cached_amortized_queries_per_verdict']:.1f} queries/verdict; "
        f"process backend {process_speedup:.2f}x on {cpu_count} core(s); "
        f"results written to {args.json}"
    )
    if scratch is not None:
        scratch.cleanup()


if __name__ == "__main__":
    main()
