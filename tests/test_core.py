"""Tests for the BPROM core: shadow models, meta-classifier, detector, inconsistency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import build_attack
from repro.core import (
    BpromDetector,
    MetaClassifier,
    ShadowModelFactory,
    prompt_shadow_models,
    prompted_accuracy_gap,
    subspace_inconsistency_score,
)
from repro.core.inconsistency import class_subspace_projection, meta_feature_projection, subspace_report
from repro.models.registry import build_classifier


@pytest.fixture(scope="module")
def shadow_factory(micro_profile):
    return ShadowModelFactory(
        profile=micro_profile, architecture="mlp", shadow_attack="badnets", seed=0
    )


@pytest.fixture(scope="module")
def shadow_pool(shadow_factory, tiny_dataset):
    return shadow_factory.build_pool(tiny_dataset, num_clean=2, num_backdoor=2)


def test_shadow_pool_composition(shadow_pool):
    assert len(shadow_pool) == 4
    assert [s.is_backdoored for s in shadow_pool] == [False, False, True, True]
    for shadow in shadow_pool:
        assert shadow.clean_accuracy > 0.3
    backdoored = [s for s in shadow_pool if s.is_backdoored]
    assert all(s.attack_name == "badnets" for s in backdoored)
    assert all(s.target_class is not None for s in backdoored)


def test_shadow_models_have_distinct_parameters(shadow_pool):
    first = shadow_pool[0].classifier.model.parameters()[0].data
    second = shadow_pool[1].classifier.model.parameters()[0].data
    assert not np.allclose(first, second)


def test_prompt_shadow_models_returns_prompted_classifiers(
    shadow_pool, tiny_dataset, micro_profile
):
    prompted = prompt_shadow_models(shadow_pool[:2], tiny_dataset, micro_profile, seed=0)
    assert len(prompted) == 2
    for item in prompted:
        probabilities = item.predict_source_proba(tiny_dataset.images[:3])
        assert probabilities.shape == (3, tiny_dataset.num_classes)


def test_meta_classifier_requires_query_pool(tiny_dataset):
    meta = MetaClassifier(query_samples=4, num_trees=5, augmentation=2, rng=0)
    with pytest.raises(RuntimeError):
        meta.fit([], [])
    with pytest.raises(ValueError):
        meta.set_query_pool(tiny_dataset.subset([0, 1]))  # fewer samples than q


def test_meta_classifier_fit_and_score(shadow_pool, tiny_dataset, tiny_test_dataset, micro_profile):
    prompted = prompt_shadow_models(shadow_pool, tiny_dataset, micro_profile, seed=0)
    labels = [int(s.is_backdoored) for s in shadow_pool]
    meta = MetaClassifier(query_samples=4, num_trees=10, augmentation=3, rng=0)
    meta.set_query_pool(tiny_test_dataset)
    dataset = meta.build_meta_dataset(prompted, labels)
    assert dataset.features.shape == (len(prompted) * 3, 4 * tiny_dataset.num_classes)
    meta.fit(prompted, labels)
    score = meta.backdoor_score(prompted[0])
    assert 0.0 <= score <= 1.0
    assert meta.predict(prompted[0]) in (0, 1)
    # the meta-classifier should at least separate its own training shadow models
    clean_scores = [meta.backdoor_score(p) for p, l in zip(prompted, labels) if l == 0]
    backdoor_scores = [meta.backdoor_score(p) for p, l in zip(prompted, labels) if l == 1]
    assert np.mean(backdoor_scores) >= np.mean(clean_scores)


def test_meta_classifier_rejects_mismatched_labels(shadow_pool, tiny_dataset, tiny_test_dataset, micro_profile):
    prompted = prompt_shadow_models(shadow_pool[:2], tiny_dataset, micro_profile, seed=0)
    meta = MetaClassifier(query_samples=4, num_trees=5, augmentation=2, rng=0)
    meta.set_query_pool(tiny_test_dataset)
    with pytest.raises(ValueError):
        meta.build_meta_dataset(prompted, [0])


def test_detector_end_to_end(micro_profile, tiny_dataset, tiny_test_dataset, shadow_pool):
    detector = BpromDetector(profile=micro_profile, architecture="mlp", seed=0)
    detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset, shadow_models=shadow_pool)

    clean_model = build_classifier("mlp", tiny_dataset.num_classes, tiny_dataset.image_size, rng=99, name="sus-clean")
    clean_model.fit(tiny_dataset, micro_profile.classifier, rng=100)
    result_clean = detector.inspect(clean_model)
    assert 0.0 <= result_clean.backdoor_score <= 1.0
    assert isinstance(result_clean.is_backdoored, bool)
    assert 0.0 <= result_clean.prompted_accuracy <= 1.0

    attack = build_attack("badnets", target_class=0, seed=7, patch_size=4)
    poisoned = attack.poison(tiny_dataset, poison_rate=0.3, rng=8)
    backdoored_model = build_classifier("mlp", tiny_dataset.num_classes, tiny_dataset.image_size, rng=101, name="sus-bd")
    backdoored_model.fit(poisoned.dataset, micro_profile.classifier, rng=102)
    result_backdoored = detector.inspect(backdoored_model)
    assert 0.0 <= result_backdoored.backdoor_score <= 1.0

    scores = detector.score_models([clean_model, backdoored_model])
    assert scores.shape == (2,)


def test_inspect_without_key_still_seeds_on_name(
    micro_profile, tiny_dataset, tiny_test_dataset, shadow_pool, trained_mlp
):
    """Without a key, the single-model path seeds prompting on the model name."""
    detector = BpromDetector(profile=micro_profile, architecture="mlp", seed=0)
    detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset, shadow_models=shadow_pool)
    by_default = detector.prompt_suspicious(trained_mlp)
    by_name = detector.prompt_suspicious(trained_mlp, seed_key=trained_mlp.name)
    np.testing.assert_array_equal(by_default.prompt.theta, by_name.prompt.theta)
    with pytest.raises(ValueError):
        detector.inspect_many([trained_mlp, trained_mlp], keys=["just-one"])


def test_detector_requires_fit_before_inspect(micro_profile, trained_mlp):
    detector = BpromDetector(profile=micro_profile, architecture="mlp", seed=0)
    with pytest.raises(RuntimeError):
        detector.inspect(trained_mlp)


def test_detector_rejects_empty_shadow_pool(micro_profile, tiny_dataset, tiny_test_dataset):
    detector = BpromDetector(profile=micro_profile, architecture="mlp", seed=0)
    with pytest.raises(ValueError):
        detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset, shadow_models=[])


def test_subspace_inconsistency_higher_for_backdoored_target_class(
    micro_profile, tiny_dataset, tiny_test_dataset
):
    clean = build_classifier("mlp", tiny_dataset.num_classes, tiny_dataset.image_size, rng=0)
    clean.fit(tiny_dataset, micro_profile.classifier, rng=1)
    attack = build_attack("badnets", target_class=0, seed=2, patch_size=4)
    poisoned = attack.poison(tiny_dataset, poison_rate=0.3, rng=3)
    infected = build_classifier("mlp", tiny_dataset.num_classes, tiny_dataset.image_size, rng=4)
    infected.fit(poisoned.dataset, micro_profile.classifier, rng=5)

    report = subspace_report(infected, tiny_test_dataset)
    assert report.centroids.shape[0] == tiny_dataset.num_classes
    assert report.between_class_distance.shape == (4, 4)
    clean_score = subspace_inconsistency_score(clean, tiny_test_dataset, target_class=0)
    infected_score = subspace_inconsistency_score(infected, tiny_test_dataset, target_class=0)
    assert infected_score > 0.0 and clean_score > 0.0


def test_class_subspace_projection_shapes(trained_mlp, tiny_test_dataset):
    projection = class_subspace_projection(trained_mlp, tiny_test_dataset)
    assert projection["projection"].shape == (len(tiny_test_dataset), 2)
    assert projection["labels"].shape == (len(tiny_test_dataset),)


def test_prompted_accuracy_gap_keys(trained_mlp, tiny_dataset, tiny_test_dataset, micro_profile):
    from repro.prompting import train_prompt_whitebox

    prompted = train_prompt_whitebox(trained_mlp, tiny_dataset, micro_profile.prompt, rng=0)
    gap = prompted_accuracy_gap(prompted, prompted, tiny_test_dataset)
    assert gap["gap"] == pytest.approx(0.0)
    assert set(gap) == {"clean_prompted_accuracy", "infected_prompted_accuracy", "gap"}


def test_meta_feature_projection(trained_mlp, tiny_dataset, tiny_test_dataset, micro_profile):
    from repro.prompting import train_prompt_whitebox

    prompted = train_prompt_whitebox(trained_mlp, tiny_dataset, micro_profile.prompt, rng=0)
    result = meta_feature_projection([prompted, prompted], [0, 1], tiny_test_dataset.images[:4])
    assert result["projection"].shape == (2, 2)
    with pytest.raises(ValueError):
        meta_feature_projection([prompted], [0, 1], tiny_test_dataset.images[:4])
