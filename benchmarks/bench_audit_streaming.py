"""Streaming vs. batch audit: time-to-first-verdict and throughput.

Fits one BPROM detector through the detector registry, builds a fleet of
suspicious models, then screens the same catalogue twice: through the batch
``BpromDetector.inspect_many(models, keys=...)`` fan-out (no verdict until the
whole batch finishes) and through a one-tenant ``AuditGateway.stream``
(verdicts yielded as models finish, bounded in-flight backpressure).
Correctness is asserted on every run — streaming verdicts must be
bit-identical to the batch report — so the benchmark doubles as an
equivalence check.  Results are written as machine-readable JSON so the perf
trajectory can be tracked across commits.

Run with:  PYTHONPATH=src python benchmarks/bench_audit_streaming.py \
               [--profile tiny|fast|bench] [--arch mlp] [--workers 4] \
               [--models 8] [--max-in-flight 4] [--json BENCH_audit_streaming.json]
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

from repro.config import RuntimeConfig, get_profile
from repro.datasets.registry import load_dataset
from repro.models.registry import build_classifier
from repro.runtime import AuditGateway, DetectorRegistry, DetectorSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="fast", help="experiment profile preset")
    parser.add_argument("--arch", default="resnet18", help="suspicious/shadow architecture")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--backend", default="thread", choices=("thread", "process"))
    parser.add_argument("--models", type=int, default=8, help="catalogue size")
    parser.add_argument("--max-in-flight", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        default="BENCH_audit_streaming.json",
        help="output path for machine-readable results",
    )
    args = parser.parse_args()

    profile = get_profile(args.profile)
    # the gateway's process workers hydrate the detector from a store
    scratch = tempfile.TemporaryDirectory(prefix="bench-streaming-")
    runtime = RuntimeConfig(
        workers=args.workers,
        backend=args.backend,
        cache_dir=scratch.name,
    )
    train, test = load_dataset("cifar10", profile, seed=args.seed)
    target_train, target_test = load_dataset("stl10", profile, seed=args.seed)

    print(
        f"profile={profile.name} arch={args.arch} models={args.models} "
        f"workers={args.workers} backend={args.backend} cores={os.cpu_count() or 1}"
    )

    print("fitting the detector once ...")
    registry = DetectorRegistry(runtime=runtime)
    spec = DetectorSpec(profile=profile, architecture=args.arch, seed=args.seed)
    detector = registry.get_or_fit(spec, test, target_train, target_test).detector

    print(f"building a catalogue of {args.models} vendor models ...")
    catalogue = {}
    for index in range(args.models):
        model = build_classifier(
            args.arch,
            train.num_classes,
            image_size=profile.image_size,
            rng=1000 + index,
            name=f"vendor-{index}",
        )
        model.fit(train, profile.classifier, rng=2000 + index)
        catalogue[model.name] = model

    print("batch path (BpromDetector.inspect_many):")
    start = time.perf_counter()
    batch_report = detector.inspect_many(list(catalogue.values()), keys=list(catalogue))
    batch_total_s = time.perf_counter() - start
    # the batch path yields nothing until the whole report is assembled
    print(f"  total {batch_total_s:8.2f}s   first verdict {batch_total_s:8.2f}s")

    print("streaming path (one-tenant AuditGateway.stream):")
    streamed = []
    first_verdict_s = None
    with AuditGateway(registry=registry, max_in_flight=args.max_in_flight) as gateway:
        gateway.register_tenant("vendor", spec, test, target_train, target_test)
        start = time.perf_counter()
        for verdict in gateway.stream(catalogue.items()):
            if first_verdict_s is None:
                first_verdict_s = time.perf_counter() - start
            streamed.append(verdict)
        stream_total_s = time.perf_counter() - start
        max_in_flight = gateway.max_in_flight
    scratch.cleanup()
    print(f"  total {stream_total_s:8.2f}s   first verdict {first_verdict_s:8.2f}s")

    expected = dict(zip(catalogue, batch_report))
    assert len(streamed) == len(batch_report)
    for verdict in streamed:
        reference = expected[verdict.name]
        assert verdict.backdoor_score == reference.backdoor_score, verdict.name
        assert verdict.is_backdoored == reference.is_backdoored, verdict.name
        assert verdict.prompted_accuracy == reference.prompted_accuracy, verdict.name
    print("  streaming verdicts bit-identical to the batch report")

    results = {
        "benchmark": "audit_streaming",
        "profile": profile.name,
        "arch": args.arch,
        "workers": args.workers,
        "backend": args.backend,
        "models": args.models,
        "max_in_flight": max_in_flight,
        "batch_total_seconds": batch_total_s,
        "batch_first_verdict_seconds": batch_total_s,
        "stream_total_seconds": stream_total_s,
        "stream_first_verdict_seconds": first_verdict_s,
        "first_verdict_speedup": batch_total_s / max(first_verdict_s, 1e-9),
        "batch_models_per_second": args.models / max(batch_total_s, 1e-9),
        "stream_models_per_second": args.models / max(stream_total_s, 1e-9),
        "verdicts_bit_identical": True,
    }
    with open(args.json, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(
        f"time-to-first-verdict speedup {results['first_verdict_speedup']:.2f}x; "
        f"results written to {args.json}"
    )


if __name__ == "__main__":
    main()
