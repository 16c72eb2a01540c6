"""Sequential vs. stacked shadow-pool training: models trained per second.

Builds the same pool of clean + backdoored shadow models twice — once with the
sequential per-model training loop and once with the stacked model-axis engine
(``repro.nn.stacked``) — and reports models-trained-per-second for both.
Correctness is asserted on every run, so the benchmark doubles as an
equivalence check:

* pool labels, target classes and training histories must match,
* every state-dict entry must agree within 1e-9,
* the artifact-store cache keys must not depend on the training mode (a
  stacked run warms the cache for a sequential run and vice versa).

The stacked engine fuses K models' Python/numpy dispatch into single ops, so
it shines where per-op overhead dominates — the transformer zoo's many small
token-space ops, small batches, large pools.  The default smoke configuration
(``--arch vit --models 8 --batch-size 4 --image-size 8``) sits in that regime;
cache-bound CNN/MLP shapes stay near 1x, which is why ``auto`` mode only
stacks transformer pools.  Results are written as machine-readable JSON so the
perf trajectory can be tracked across commits.

``--tier-compare`` switches the benchmark to the precision-tier axis instead:
the same CNN pool is trained sequentially in the float64 reference tier and
the float32 fast tier, and models/s are reported for both.  Correctness is
again asserted on every run — the tiers must agree on pool composition (same
RNG streams), and an MNTD detector fitted on each tier's pool must give the
suspicious models near-identical scores (``--score-tolerance``) with matching
verdicts away from the threshold.  The float32 tier halves memory traffic
through the conv layers, where CNN training is bandwidth-bound.

Run with:  PYTHONPATH=src python benchmarks/bench_shadow_training.py \
               [--profile tiny|fast|bench] [--arch vit] [--models 8] \
               [--tier-compare] [--json BENCH_shadow_training.json]
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from dataclasses import replace

import numpy as np

from repro.config import RuntimeConfig, get_profile
from repro.core.detector import BpromDetector
from repro.core.shadow import ShadowModelFactory
from repro.datasets.registry import load_dataset


def assert_pools_equivalent(sequential, stacked, tolerance=1e-9) -> float:
    """Check the two pools agree; returns the maximum state-dict deviation."""
    assert [s.is_backdoored for s in sequential] == [s.is_backdoored for s in stacked]
    assert [s.target_class for s in sequential] == [s.target_class for s in stacked]
    max_diff = 0.0
    for left, right in zip(sequential, stacked):
        np.testing.assert_allclose(
            left.classifier.history.losses,
            right.classifier.history.losses,
            rtol=0.0,
            atol=tolerance,
        )
        state_left, state_right = left.classifier.state_dict(), right.classifier.state_dict()
        assert set(state_left) == set(state_right)
        for key in state_left:
            diff = float(np.max(np.abs(state_left[key] - state_right[key]), initial=0.0))
            max_diff = max(max_diff, diff)
            assert diff <= tolerance, f"{key}: {diff}"
    return max_diff


def check_cache_interop(profile, arch, seed, reserved, target_train, target_test) -> None:
    """A stacked fit must warm the shadow cache for a sequential fit, and back.

    The prompt stage's key carries the shadow pool's fingerprint, so it loads
    only when the shadow pool did: two store hits mean both stages loaded.
    """
    for first_mode, second_mode in (("stacked", "sequential"), ("sequential", "stacked")):
        with tempfile.TemporaryDirectory(prefix="bench-shadow-cache-") as cache_dir:
            hits = []
            for mode in (first_mode, second_mode):
                detector = BpromDetector(
                    profile=profile,
                    architecture=arch,
                    seed=seed,
                    runtime=RuntimeConfig(cache_dir=cache_dir, shadow_training=mode),
                )
                detector.fit(reserved, target_train, target_test)
                hits.append(detector._store.hits)
            assert hits == [0, 2], (
                f"{first_mode} run did not warm the cache for the "
                f"{second_mode} run: store hits {hits}"
            )


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
    from repro.defenses.model_level import MNTDDefense

    tiers = ("float64", "float32")
    num_clean = models // 2
    num_backdoor = models - num_clean
    factories = {
        tier: ShadowModelFactory(
            profile=profile,
            architecture=arch,
            seed=seed,
            training_mode="sequential",
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
        print(f"{tier} tier (sequential CNN pool):")
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
    parser.add_argument("--arch", default="vit", help="shadow architecture")
    parser.add_argument("--models", type=int, default=8, help="pool size (clean + backdoored)")
    parser.add_argument(
        "--batch-size", type=int, default=4, help="override the profile's training batch size"
    )
    parser.add_argument("--epochs", type=int, default=None, help="override training epochs")
    parser.add_argument(
        "--image-size", type=int, default=8, help="override the profile's image size"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timed passes per path; the minimum is reported (noise robustness)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tier-compare",
        action="store_true",
        help="benchmark the float64 vs float32 precision tiers (sequential "
        "training) instead of the sequential vs stacked engines",
    )
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
        "--skip-cache-check",
        action="store_true",
        help="skip the (detector-fitting) artifact-cache interop assertion",
    )
    parser.add_argument(
        "--json",
        default="BENCH_shadow_training.json",
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
    train, test = load_dataset("cifar10", profile, seed=args.seed)
    num_clean = args.models // 2
    num_backdoor = args.models - num_clean
    config = profile.classifier
    print(
        f"profile={profile.name} arch={args.arch} models={args.models} "
        f"(clean={num_clean} backdoor={num_backdoor}) epochs={config.epochs} "
        f"batch={config.batch_size} image={profile.image_size} "
        f"cores={os.cpu_count() or 1}"
    )

    if args.tier_compare:
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
        return

    factories = {
        mode: ShadowModelFactory(
            profile=profile, architecture=args.arch, seed=args.seed, training_mode=mode
        )
        for mode in ("sequential", "stacked")
    }

    def build(mode):
        start = time.perf_counter()
        pool = factories[mode].build_pool(test, num_clean=num_clean, num_backdoor=num_backdoor)
        return pool, time.perf_counter() - start

    # interleave the timed passes so machine-load drift hits both paths equally
    sequential_s = stacked_s = float("inf")
    for _ in range(max(args.repeats, 1)):
        sequential_pool, elapsed = build("sequential")
        sequential_s = min(sequential_s, elapsed)
        stacked_pool, elapsed = build("stacked")
        stacked_s = min(stacked_s, elapsed)

    print("sequential loop (one Python training loop per shadow):")
    print(f"  total {sequential_s:8.2f}s   {args.models / sequential_s:8.2f} models/s")
    print("stacked engine (K models as one model-axis computation):")
    print(f"  total {stacked_s:8.2f}s   {args.models / stacked_s:8.2f} models/s")

    max_diff = assert_pools_equivalent(sequential_pool, stacked_pool)
    print(f"  pools equivalent (max state-dict deviation {max_diff:.2e})")

    if not args.skip_cache_check:
        reserved = test.sample_fraction(profile.reserved_fraction, rng=args.seed)
        target_train, target_test = load_dataset("stl10", profile, seed=args.seed)
        check_cache_interop(profile, args.arch, args.seed, reserved, target_train, target_test)
        print("  artifact-store cache keys are training-mode independent")

    speedup = sequential_s / max(stacked_s, 1e-9)
    results = {
        "benchmark": "shadow_training",
        "profile": profile.name,
        "arch": args.arch,
        "models": args.models,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "image_size": profile.image_size,
        "sequential_total_seconds": sequential_s,
        "stacked_total_seconds": stacked_s,
        "sequential_models_per_second": args.models / max(sequential_s, 1e-9),
        "stacked_models_per_second": args.models / max(stacked_s, 1e-9),
        "speedup": speedup,
        "max_state_dict_deviation": max_diff,
        "pools_equivalent": True,
        "cache_keys_mode_independent": not args.skip_cache_check,
    }
    with open(args.json, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(
        f"stacked speedup {speedup:.2f}x "
        f"({results['sequential_models_per_second']:.2f} -> "
        f"{results['stacked_models_per_second']:.2f} models/s); "
        f"results written to {args.json}"
    )


if __name__ == "__main__":
    main()
