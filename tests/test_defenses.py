"""Tests for the baseline defenses (input-, dataset- and model-level)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import build_attack
from repro.defenses import available_defenses, build_defense
from repro.defenses.base import triggered_and_clean_split
from repro.defenses.dataset_level import (
    ActivationClusteringDefense,
    ConfusionTrainingDefense,
    FrequencyDefense,
    ScanDefense,
    SpectralSignaturesDefense,
    SpectreDefense,
)
from repro.defenses.input_level import (
    CognitiveDistillationDefense,
    ScaleUpDefense,
    SentiNetDefense,
    StripDefense,
    TeCoDefense,
    TEDDefense,
)
from repro.defenses.model_level import MMBDDefense, MNTDDefense
from repro.defenses.registry import canonical_defense_name


@pytest.fixture(scope="module")
def backdoored_mlp(tiny_dataset, micro_profile):
    """A badnets-poisoned MLP plus its poisoning result (shared across tests)."""
    from repro.models.registry import build_classifier

    attack = build_attack("badnets", target_class=0, seed=0, patch_size=4)
    poisoning = attack.poison(tiny_dataset, poison_rate=0.3, rng=0)
    classifier = build_classifier("mlp", tiny_dataset.num_classes, tiny_dataset.image_size, rng=3)
    classifier.fit(poisoning.dataset, micro_profile.classifier, rng=4)
    return classifier, attack, poisoning


INPUT_DEFENSE_FACTORIES = [
    ("strip", lambda aux: StripDefense(aux, num_overlays=4, rng=0)),
    ("scale_up", lambda aux: ScaleUpDefense(factors=(3.0, 5.0))),
    ("teco", lambda aux: TeCoDefense(severities=(0.1, 0.3), rng=0)),
    ("sentinet", lambda aux: SentiNetDefense(aux, patch_size=4, num_carriers=4, rng=0)),
    ("ted", lambda aux: TEDDefense(aux, neighbours=3)),
    ("cd", lambda aux: CognitiveDistillationDefense(patch_size=4)),
]


@pytest.mark.parametrize("name,factory", INPUT_DEFENSE_FACTORIES, ids=[f[0] for f in INPUT_DEFENSE_FACTORIES])
def test_input_level_defenses_score_shapes(name, factory, backdoored_mlp, tiny_test_dataset):
    classifier, attack, _ = backdoored_mlp
    defense = factory(tiny_test_dataset)
    clean_images, triggered_images = triggered_and_clean_split(
        attack, tiny_test_dataset, max_samples=8, rng=0
    )
    scores = defense.score_inputs(classifier, clean_images)
    assert scores.shape == (clean_images.shape[0],)
    evaluation = defense.evaluate(classifier, clean_images, triggered_images)
    assert 0.0 <= evaluation.auroc <= 1.0
    assert 0.0 <= evaluation.f1 <= 1.0


DATASET_DEFENSE_FACTORIES = [
    ("activation_clustering", lambda: ActivationClusteringDefense(rng=0)),
    ("spectral_signatures", lambda: SpectralSignaturesDefense()),
    ("scan", lambda: ScanDefense(rng=0)),
    ("spectre", lambda: SpectreDefense()),
    ("frequency", lambda: FrequencyDefense()),
    ("confusion_training", lambda: ConfusionTrainingDefense(epochs=3, rng=0)),
]


@pytest.mark.parametrize("name,factory", DATASET_DEFENSE_FACTORIES, ids=[f[0] for f in DATASET_DEFENSE_FACTORIES])
def test_dataset_level_defenses_score_training_set(name, factory, backdoored_mlp):
    classifier, _, poisoning = backdoored_mlp
    defense = factory()
    scores = defense.score_training_samples(classifier, poisoning.dataset)
    assert scores.shape == (len(poisoning.dataset),)
    evaluation = defense.evaluate(classifier, poisoning)
    assert 0.0 <= evaluation.auroc <= 1.0


def test_spectral_signatures_detects_patch_poisoning(backdoored_mlp):
    """A visible patch + label flip should not be anti-correlated with the score.

    On the micro MLP substrate the spectral signal is weak, so the assertion is
    a sanity bound rather than the paper-level detection threshold.
    """
    classifier, _, poisoning = backdoored_mlp
    evaluation = SpectralSignaturesDefense().evaluate(classifier, poisoning)
    assert evaluation.auroc >= 0.3
    assert np.isfinite(evaluation.scores).all()


def test_strip_flags_triggered_inputs(backdoored_mlp, tiny_test_dataset):
    classifier, attack, _ = backdoored_mlp
    defense = StripDefense(tiny_test_dataset, num_overlays=6, rng=0)
    clean_images, triggered_images = triggered_and_clean_split(
        attack, tiny_test_dataset, max_samples=12, rng=0
    )
    evaluation = defense.evaluate(classifier, clean_images, triggered_images)
    assert evaluation.auroc > 0.4  # should not be anti-correlated


def test_mmbd_scores_models(backdoored_mlp, trained_mlp, tiny_test_dataset):
    backdoored_classifier, _, _ = backdoored_mlp
    defense = MMBDDefense(num_probes=32, optimisation_steps=2)
    evaluation = defense.evaluate_models(
        [trained_mlp, backdoored_classifier], [0, 1], tiny_test_dataset, rng=0
    )
    assert 0.0 <= evaluation.auroc <= 1.0
    assert evaluation.scores.shape == (2,)


def test_mntd_requires_fit_and_scores_models(micro_profile, tiny_dataset, trained_mlp):
    defense = MNTDDefense(profile=micro_profile, architecture="mlp", num_queries=4, seed=0)
    with pytest.raises(RuntimeError):
        defense.score_model(trained_mlp, tiny_dataset)
    from repro.core import ShadowModelFactory

    pool = ShadowModelFactory(micro_profile, "mlp", seed=1).build_pool(
        tiny_dataset, num_clean=1, num_backdoor=1
    )
    defense.fit(tiny_dataset, shadow_models=pool)
    score = defense.score_model(trained_mlp, tiny_dataset)
    assert 0.0 <= score <= 1.0


def test_mntd_float32_tier_trains_float32_shadows(micro_profile, tiny_dataset, trained_mlp):
    defense = MNTDDefense(
        profile=micro_profile,
        architecture="mlp",
        shadow_attacks=("badnets",),
        num_queries=4,
        seed=7,
        precision="float32",
    )
    defense.fit(tiny_dataset)
    assert all(s.classifier.dtype == np.float32 for s in defense.shadow_models)
    assert 0.0 <= defense.score_model(trained_mlp, tiny_dataset) <= 1.0


def test_defense_registry_builds_every_defense(tiny_test_dataset):
    for name in available_defenses():
        if name == "mntd":
            continue  # requires an expensive fit; covered above
        defense = build_defense(name, auxiliary_data=tiny_test_dataset, rng=0)
        assert defense is not None


def test_defense_registry_aliases_and_errors(tiny_test_dataset):
    assert canonical_defense_name("AC") == "activation_clustering"
    assert canonical_defense_name("Scale-Up") == "scale_up"
    with pytest.raises(KeyError):
        build_defense("unknown-defense")
    with pytest.raises(ValueError):
        build_defense("strip")  # missing auxiliary data
