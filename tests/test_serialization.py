"""Serialization round-trips: state dicts for every architecture, ml models,
and a fitted detector surviving save/load with bit-identical scores."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.core.meta import MetaClassifier
from repro.core.shadow import ShadowModel
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegression
from repro.models.registry import available_architectures, build_classifier
from repro.nn.norm import BatchNorm2d
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.runtime import Artifact
from repro.runtime import serialization as ser


@pytest.mark.parametrize("architecture", available_architectures())
def test_state_dict_round_trip_every_architecture(architecture, tiny_dataset, tmp_path):
    """save_state_dict/load_state_dict reproduce outputs for the whole zoo."""
    classifier = build_classifier(
        architecture, tiny_dataset.num_classes, image_size=tiny_dataset.image_size, rng=0
    )
    # one short fit so BatchNorm running statistics diverge from their init
    classifier.fit(tiny_dataset, TrainingConfig(epochs=1, batch_size=8), rng=1)
    path = tmp_path / f"{architecture}.npz"
    save_state_dict(classifier.model, path)

    fresh = build_classifier(
        architecture, tiny_dataset.num_classes, image_size=tiny_dataset.image_size, rng=99
    )
    load_state_dict(fresh.model, path)

    batch = tiny_dataset.images[:5]
    np.testing.assert_array_equal(
        classifier.predict_logits(batch), fresh.predict_logits(batch)
    )
    for (name, original), (other_name, restored) in zip(
        classifier.model.named_buffers(), fresh.model.named_buffers()
    ):
        assert name == other_name
        np.testing.assert_array_equal(original, restored)


def test_batchnorm_buffers_survive_round_trip(tiny_dataset, tmp_path):
    """The resnet carries BatchNorm buffers whose trained values must persist."""
    classifier = build_classifier(
        "resnet18", tiny_dataset.num_classes, image_size=tiny_dataset.image_size, rng=0
    )
    classifier.fit(tiny_dataset, TrainingConfig(epochs=1, batch_size=8), rng=1)
    buffers = dict(classifier.model.named_buffers())
    assert buffers, "resnet is expected to register BatchNorm buffers"
    assert any(
        not np.allclose(value, 0.0) and not np.allclose(value, 1.0)
        for value in buffers.values()
    ), "training should have moved the running statistics"
    assert any(isinstance(m, BatchNorm2d) for m in classifier.model.modules())

    path = tmp_path / "resnet.npz"
    save_state_dict(classifier.model, path)
    fresh = build_classifier(
        "resnet18", tiny_dataset.num_classes, image_size=tiny_dataset.image_size, rng=7
    )
    load_state_dict(fresh.model, path)
    for name, value in fresh.model.named_buffers():
        np.testing.assert_array_equal(value, buffers[name])


def test_load_state_dict_reads_a_deflated_archive(tmp_path):
    """Archives written with ``np.savez_compressed``, as before arrays were
    stored uncompressed, load to the same bytes."""
    model = build_classifier("resnet18", 4, image_size=12, rng=0).model
    state = model.state_dict()
    path = tmp_path / "deflated.npz"
    np.savez_compressed(path, **state)
    fresh = build_classifier("resnet18", 4, image_size=12, rng=99).model
    load_state_dict(fresh, path)
    restored = fresh.state_dict()
    assert restored.keys() == state.keys()
    for name, value in state.items():
        assert restored[name].dtype == value.dtype
        assert restored[name].tobytes() == value.tobytes(), name


def test_classifier_artifact_round_trip(trained_mlp, tiny_dataset, tmp_path):
    artifact = Artifact(tmp_path)
    ser.save_classifier(artifact, trained_mlp)
    restored = ser.load_classifier(artifact)
    assert restored.name == trained_mlp.name
    assert restored.architecture == trained_mlp.architecture
    np.testing.assert_array_equal(
        trained_mlp.predict_proba(tiny_dataset.images[:4]),
        restored.predict_proba(tiny_dataset.images[:4]),
    )


def test_classifier_without_build_spec_is_rejected(tmp_path):
    from repro.models.classifier import ImageClassifier
    from repro.models.mlp import MLPNet

    bare = ImageClassifier(MLPNet(3, input_dim=12, rng=0), 3)
    with pytest.raises(ValueError):
        ser.save_classifier(Artifact(tmp_path), bare)


def test_dataset_artifact_round_trip(tiny_dataset, tmp_path):
    artifact = Artifact(tmp_path)
    ser.save_dataset(artifact, tiny_dataset)
    restored = ser.load_dataset(artifact)
    np.testing.assert_array_equal(restored.images, tiny_dataset.images)
    np.testing.assert_array_equal(restored.labels, tiny_dataset.labels)
    assert restored.num_classes == tiny_dataset.num_classes
    assert restored.name == tiny_dataset.name


def test_random_forest_state_round_trip(rng):
    features = rng.normal(size=(60, 8))
    labels = (features[:, 0] + features[:, 3] > 0).astype(np.int64)
    forest = RandomForestClassifier(n_estimators=12, max_depth=5, rng=0)
    forest.fit(features, labels)
    restored = RandomForestClassifier.from_state(forest.get_state())
    probe = rng.normal(size=(25, 8))
    np.testing.assert_array_equal(forest.predict_proba(probe), restored.predict_proba(probe))


def test_logistic_state_round_trip(rng):
    features = rng.normal(size=(40, 5))
    labels = (features[:, 1] > 0).astype(np.int64)
    model = LogisticRegression(iterations=50, rng=0)
    model.fit(features, labels)
    restored = LogisticRegression.from_state(model.get_state())
    probe = rng.normal(size=(10, 5))
    np.testing.assert_array_equal(model.predict_proba(probe), restored.predict_proba(probe))


def test_meta_classifier_state_round_trip(
    micro_profile, tiny_dataset, tiny_test_dataset, trained_mlp, tmp_path
):
    from repro.core.prompting_stage import prompt_shadow_models

    shadows = [
        ShadowModel(classifier=trained_mlp, is_backdoored=False),
        ShadowModel(classifier=trained_mlp, is_backdoored=True),
    ]
    prompted = prompt_shadow_models(shadows, tiny_dataset, micro_profile, seed=3)
    meta = MetaClassifier(query_samples=4, num_trees=8, augmentation=2, rng=0)
    meta.set_query_pool(tiny_test_dataset)
    meta.fit(prompted, [0, 1])

    artifact = Artifact(tmp_path)
    ser.save_meta_classifier(artifact, meta)
    restored = ser.load_meta_classifier(artifact)
    for item in prompted:
        assert restored.backdoor_score(item) == meta.backdoor_score(item)
