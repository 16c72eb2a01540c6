"""Sequential vs. parallel shadow-pool build and batch inspection.

Measures the wall-clock effect of the runtime's worker fan-out on the two
embarrassingly-parallel hot paths: shadow-model training
(``ShadowModelFactory.build_pool``) and serve-many inspection
(``BpromDetector.inspect_many``).  Correctness is asserted on every run —
the parallel pool must contain bit-identical models, and batch scores must
equal sequential scores — so the benchmark doubles as an equivalence check.

Results are also written as machine-readable JSON (``--json``) so the perf
trajectory can be tracked across commits.

Run with:  PYTHONPATH=src python benchmarks/bench_runtime_parallel.py \
               [--profile tiny|fast|bench] [--arch mlp] [--workers 4] [--backend thread] \
               [--json BENCH_runtime_parallel.json]
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.core.detector import BpromDetector
from repro.core.shadow import ShadowModelFactory
from repro.config import get_profile
from repro.datasets.registry import load_dataset
from repro.models.registry import build_classifier
from repro.runtime import WorkerPool


def _time(label: str, fn):
    start = time.perf_counter()
    value = fn()
    elapsed = time.perf_counter() - start
    print(f"  {label:<28s} {elapsed:8.2f}s")
    return value, elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="fast", help="experiment profile preset")
    parser.add_argument("--arch", default="resnet18", help="shadow architecture")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--backend", default="thread", choices=("thread", "process"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        default="BENCH_runtime_parallel.json",
        help="output path for machine-readable results",
    )
    args = parser.parse_args()

    profile = get_profile(args.profile)

    def fan_out(tasks, run):
        # each timed parallel run opens (and pays for) its own pool, never
        # wider than its task count
        with WorkerPool(min(args.workers, tasks), args.backend) as pool:
            return run(pool)

    train, test = load_dataset("cifar10", profile, seed=args.seed)
    target_train, target_test = load_dataset("stl10", profile, seed=args.seed)

    cores = os.cpu_count() or 1
    print(
        f"profile={profile.name} arch={args.arch} shadows="
        f"{profile.total_shadow_models} workers={args.workers} backend={args.backend} "
        f"cores={cores}"
    )
    if cores < 2:
        print(
            "  note: only one CPU core is available — expect speedup ~1.0x here; "
            "the parallel path can only win on multi-core hardware"
        )

    print("shadow-pool build:")
    factory = ShadowModelFactory(profile=profile, architecture=args.arch, seed=args.seed)
    sequential_pool, shadow_sequential_s = _time(
        "sequential", lambda: factory.build_pool(test)
    )
    parallel_pool, shadow_parallel_s = _time(
        f"parallel ({args.workers} workers)",
        lambda: fan_out(
            profile.total_shadow_models, lambda pool: factory.build_pool(test, executor=pool)
        ),
    )
    for left, right in zip(sequential_pool, parallel_pool):
        for p, q in zip(left.classifier.model.parameters(), right.classifier.model.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
    shadow_speedup = shadow_sequential_s / max(shadow_parallel_s, 1e-9)
    print(f"  pools identical; speedup {shadow_speedup:.2f}x")

    print("batch inspection (serve-many):")
    detector = BpromDetector(profile=profile, architecture=args.arch, seed=args.seed)
    detector.fit(test, target_train, target_test, shadow_models=sequential_pool)
    fleet = []
    for index in range(max(4, args.workers)):
        model = build_classifier(
            args.arch,
            train.num_classes,
            image_size=profile.image_size,
            rng=1000 + index,
            name=f"fleet-{index}",
        )
        model.fit(train, profile.classifier, rng=2000 + index)
        fleet.append(model)
    sequential_scores, sequential_s = _time(
        "sequential",
        lambda: [detector.inspect(model).backdoor_score for model in fleet],
    )
    batch_results, parallel_s = _time(
        f"parallel ({args.workers} workers)",
        lambda: fan_out(len(fleet), lambda pool: detector.inspect_many(fleet, executor=pool)),
    )
    batch_scores = [result.backdoor_score for result in batch_results]
    assert batch_scores == sequential_scores, "parallel scores must match sequential"
    inspect_speedup = sequential_s / max(parallel_s, 1e-9)
    print(f"  scores identical; speedup {inspect_speedup:.2f}x")

    results = {
        "benchmark": "runtime_parallel",
        "profile": profile.name,
        "arch": args.arch,
        "workers": args.workers,
        "backend": args.backend,
        "cores": cores,
        "shadow_models": profile.total_shadow_models,
        "fleet_size": len(fleet),
        "shadow_sequential_seconds": shadow_sequential_s,
        "shadow_parallel_seconds": shadow_parallel_s,
        "shadow_speedup": shadow_speedup,
        "inspect_sequential_seconds": sequential_s,
        "inspect_parallel_seconds": parallel_s,
        "inspect_speedup": inspect_speedup,
        "results_bit_identical": True,
    }
    with open(args.json, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"results written to {args.json}")


if __name__ == "__main__":
    main()
