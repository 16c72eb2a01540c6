"""Precision-tier shadow-pool training: models trained per second per tier.

Trains the same CNN pool of clean + backdoored shadow models twice — in the
float64 reference tier and in the float32 fast tier — and reports
models-trained-per-second for both.  Correctness is asserted on every run:
the tiers must agree on pool composition (same RNG streams), and an MNTD
detector fitted on each tier's pool must give the suspicious models
near-identical scores (``--score-tolerance``) with matching verdicts away
from the threshold.  The float32 tier halves memory traffic through the conv
layers, where CNN training is bandwidth-bound.  Results are written as
machine-readable JSON so the perf trajectory can be tracked across commits.

Run with:  PYTHONPATH=src python benchmarks/bench_shadow_training.py \
               [--profile tiny|fast|bench] [--arch resnet18] [--models 4] \
               [--json BENCH_precision_tiers.json]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import replace

import numpy as np

from repro.config import get_profile
from repro.core.shadow import ShadowModelFactory
from repro.datasets.registry import load_dataset
from repro.defenses.model_level import MNTDDefense


def run_tier_compare(profile, arch, models, seed, repeats, test, score_tolerance):
    """Benchmark float64 vs float32 shadow training; assert detector parity.

    Returns the machine-readable results dict.  The equivalence contract is
    behavioural, not numerical: the tiers train different-precision weights,
    so instead of comparing state dicts we fit one MNTD detector per tier
    (reusing that tier's pool) and require the two detectors to agree on the
    suspicious models — scores within ``score_tolerance`` and identical
    verdicts for every model whose float64 score is at least the tolerance
    away from the decision threshold.
    """
    tiers = ("float64", "float32")
    num_clean = models // 2
    num_backdoor = models - num_clean
    factories = {
        tier: ShadowModelFactory(
            profile=profile,
            architecture=arch,
            seed=seed,
            precision=tier,
        )
        for tier in tiers
    }
    # interleave the timed passes so machine-load drift hits both tiers equally
    times = dict.fromkeys(tiers, float("inf"))
    pools = {}
    for _ in range(max(repeats, 1)):
        for tier in tiers:
            start = time.perf_counter()
            pools[tier] = factories[tier].build_pool(
                test, num_clean=num_clean, num_backdoor=num_backdoor
            )
            times[tier] = min(times[tier], time.perf_counter() - start)

    for tier in tiers:
        expected = np.float32 if tier == "float32" else np.float64
        assert all(s.classifier.dtype == expected for s in pools[tier]), tier
        print(f"{tier} tier:")
        print(f"  total {times[tier]:8.2f}s   {models / times[tier]:8.2f} models/s")
    # both tiers initialise in float64 from the same derived seeds, so the
    # pool composition (labels, attack targets) must be identical
    assert [s.is_backdoored for s in pools["float64"]] == [
        s.is_backdoored for s in pools["float32"]
    ]
    assert [s.target_class for s in pools["float64"]] == [
        s.target_class for s in pools["float32"]
    ]

    defenses = {
        tier: MNTDDefense(
            profile=profile, architecture=arch, seed=seed, precision=tier
        ).fit(test, shadow_models=pools[tier])
        for tier in tiers
    }
    threshold = defenses["float64"].threshold
    suspicious = [shadow.classifier for shadow in pools["float64"]]
    max_gap = 0.0
    for model in suspicious:
        reference = defenses["float64"].score_model(model, test)
        fast = defenses["float32"].score_model(model, test)
        gap = abs(reference - fast)
        max_gap = max(max_gap, gap)
        assert gap <= score_tolerance, (
            f"detector scores diverge across tiers for {model.name}: "
            f"float64={reference:.4f} float32={fast:.4f} (tolerance {score_tolerance})"
        )
        if abs(reference - threshold) > score_tolerance:
            assert (reference >= threshold) == (fast >= threshold), (
                f"verdict flip across tiers for {model.name}: "
                f"float64={reference:.4f} float32={fast:.4f} threshold={threshold}"
            )
    print(
        f"  detectors equivalent across tiers "
        f"(max score gap {max_gap:.4f} <= {score_tolerance})"
    )

    speedup = times["float64"] / max(times["float32"], 1e-9)
    return {
        "benchmark": "shadow_training_precision",
        "profile": profile.name,
        "arch": arch,
        "models": models,
        "epochs": profile.classifier.epochs,
        "batch_size": profile.classifier.batch_size,
        "image_size": profile.image_size,
        "float64_total_seconds": times["float64"],
        "float32_total_seconds": times["float32"],
        "float64_models_per_second": models / max(times["float64"], 1e-9),
        "float32_models_per_second": models / max(times["float32"], 1e-9),
        "float32_speedup": speedup,
        "max_detector_score_gap": max_gap,
        "score_tolerance": score_tolerance,
        "detector_verdicts_match": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="tiny", help="experiment profile preset")
    parser.add_argument("--arch", default="resnet18", help="shadow architecture")
    parser.add_argument("--models", type=int, default=4, help="pool size (clean + backdoored)")
    parser.add_argument(
        "--batch-size", type=int, default=None, help="override the profile's training batch size"
    )
    parser.add_argument("--epochs", type=int, default=None, help="override training epochs")
    parser.add_argument(
        "--image-size", type=int, default=None, help="override the profile's image size"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timed passes per tier; the minimum is reported (noise robustness)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--score-tolerance",
        type=float,
        default=0.25,
        help="maximum MNTD score gap allowed between the precision tiers; "
        "forest probabilities are averages over discrete tree votes, so a "
        "handful of leaf flips from float32 rounding moves scores by "
        "1/meta_trees steps — the default absorbs that while still catching "
        "a detector that actually disagrees",
    )
    parser.add_argument(
        "--json",
        default="BENCH_precision_tiers.json",
        help="output path for machine-readable results",
    )
    args = parser.parse_args()

    profile = get_profile(args.profile)
    classifier_overrides = {}
    if args.batch_size is not None:
        classifier_overrides["batch_size"] = args.batch_size
    if args.epochs is not None:
        classifier_overrides["epochs"] = args.epochs
    if classifier_overrides:
        profile = profile.with_overrides(
            classifier=replace(profile.classifier, **classifier_overrides)
        )
    if args.image_size is not None:
        # the prompt canvas is the shadow model's input, so both move together
        profile = profile.with_overrides(
            image_size=args.image_size,
            prompt=replace(
                profile.prompt,
                source_size=args.image_size,
                inner_size=min(profile.prompt.inner_size, args.image_size - 2),
            ),
        )
    _, test = load_dataset("cifar10", profile, seed=args.seed)
    config = profile.classifier
    print(
        f"profile={profile.name} arch={args.arch} models={args.models} "
        f"(clean={args.models // 2} backdoor={args.models - args.models // 2}) "
        f"epochs={config.epochs} batch={config.batch_size} "
        f"image={profile.image_size} cores={os.cpu_count() or 1}"
    )

    results = run_tier_compare(
        profile, args.arch, args.models, args.seed, args.repeats, test,
        args.score_tolerance,
    )
    with open(args.json, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(
        f"float32 tier speedup {results['float32_speedup']:.2f}x "
        f"({results['float64_models_per_second']:.2f} -> "
        f"{results['float32_models_per_second']:.2f} models/s); "
        f"results written to {args.json}"
    )


if __name__ == "__main__":
    main()
