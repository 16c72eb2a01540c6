"""Ablations beyond the paper's own tables, run by ``benchmarks/bench_ablation_*.py``.

* meta-classifier family (random forest vs. logistic regression vs. a plain
  prompted-accuracy threshold),
* number of query samples ``q``,
* the paper's stated limitation: all-to-all backdoors.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.config import ExperimentProfile
from repro.core.detector import BpromDetector
from repro.eval.harness import build_suspicious_pool, bprom_detection_auroc, get_context
from repro.eval.tables import format_table
from repro.ml.metrics import auroc
from repro.utils.rng import derive_seed


def run_meta_classifier(
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    dataset: str = "cifar10",
    attack: str = "badnets",
    kinds: Sequence[str] = ("random_forest", "logistic", "accuracy_threshold"),
) -> dict:
    """Compare meta-classifier families; "accuracy_threshold" scores a model by
    the negative prompted accuracy (the paper's raw signal without a learner)."""
    context = get_context(profile, seed)
    rows = []
    for kind in kinds:
        if kind == "accuracy_threshold":
            detector = context.detector(dataset, "stl10")
            pool, labels = build_suspicious_pool(context, dataset, attack)
            detector_key = f"{dataset}/stl10/resnet18/None/None/None"
            scores = []
            for entry in pool:
                prompted = context.prompted_suspicious(detector, entry, detector_key)
                scores.append(-prompted.evaluate(detector.meta_classifier.query_pool))
            value = auroc(np.asarray(scores), np.asarray(labels))
        else:
            reserved = context.reserved_clean(dataset)
            target_train, target_test = context.datasets("stl10")
            detector = BpromDetector(
                profile=context.profile,
                meta_classifier_kind=kind,
                seed=derive_seed(seed, "ablation-meta", kind),
            )
            detector.fit(
                reserved,
                target_train,
                target_test,
                shadow_models=context.shadow_pool(dataset),
            )
            pool, labels = build_suspicious_pool(context, dataset, attack)
            scores = [
                detector.meta_classifier.backdoor_score(detector.prompt_suspicious(entry.classifier))
                for entry in pool
            ]
            value = auroc(np.asarray(scores), np.asarray(labels))
        rows.append({"meta_classifier": kind, "auroc": value})
    return {"rows": rows, "table": format_table(rows, title="Ablation: meta-classifier")}


def run_query_count(
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    dataset: str = "cifar10",
    attack: str = "badnets",
    query_counts: Sequence[int] = (2, 4, 8),
) -> dict:
    """Sensitivity to the number of query samples ``q`` in the meta-feature."""
    rows = []
    base = get_context(profile, seed).profile
    for q in query_counts:
        local_context = get_context(base.with_overrides(name=f"{base.name}-q{q}", query_samples=q), seed)
        metrics = bprom_detection_auroc(local_context, dataset, attack)
        rows.append({"query_samples": q, "auroc": metrics["auroc"], "f1": metrics["f1"]})
    return {"rows": rows, "table": format_table(rows, title="Ablation: query count")}


def run_all_to_all(
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    dataset: str = "cifar10",
) -> dict:
    """The paper's stated limitation: all-to-all backdoors are harder to detect."""
    context = get_context(profile, seed)
    all_to_one = bprom_detection_auroc(context, dataset, "badnets")
    all_to_all = bprom_detection_auroc(context, dataset, "all_to_all")
    rows = [
        {"backdoor_type": "all-to-one (badnets)", "auroc": all_to_one["auroc"]},
        {"backdoor_type": "all-to-all", "auroc": all_to_all["auroc"]},
    ]
    return {"rows": rows, "table": format_table(rows, title="Ablation: all-to-all limitation")}
