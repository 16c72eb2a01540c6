"""Tests for the model zoo and the ImageClassifier wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.models import (
    ImageClassifier,
    available_architectures,
    build_classifier,
    build_model,
)
from repro.models.registry import architecture_family

ARCHITECTURES = ["resnet18", "mobilenetv2", "mobilevit", "mlp"]


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_model_forward_backward_shapes(architecture, rng):
    model = build_model(architecture, num_classes=4, image_size=12, rng=0)
    x = rng.random((3, 3, 12, 12))
    logits = model(x)
    assert logits.shape == (3, 4)
    grad = model.backward(np.ones_like(logits))
    assert grad.shape == x.shape


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_model_features_shape(architecture, rng):
    model = build_model(architecture, num_classes=4, image_size=12, rng=0)
    features = model.features(rng.random((5, 3, 12, 12)))
    assert features.shape == (5, model.feature_dim)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_model_training_reduces_loss(architecture, tiny_dataset):
    classifier = build_classifier(architecture, tiny_dataset.num_classes, 12, rng=0)
    history = classifier.fit(
        tiny_dataset, TrainingConfig(epochs=4, batch_size=16, learning_rate=1e-2), rng=1
    )
    assert history.losses[-1] < history.losses[0]
    assert 0.0 <= history.final_train_accuracy <= 1.0


def test_registry_aliases_map_to_families():
    assert type(build_model("resnet", 3, 12)).__name__ == "TinyResNet"
    assert type(build_model("swin", 3, 12)).__name__ == "TinyViT"
    assert type(build_model("mobilenet", 3, 12)).__name__ == "TinyMobileNet"
    with pytest.raises(ValueError):
        build_model("alexnet", 3, 12)
    assert "resnet18" in available_architectures()


def test_architecture_family():
    assert architecture_family("resnet18") == "cnn"
    assert architecture_family("mobilenetv2") == "cnn"
    assert architecture_family("swin") == "transformer"
    assert architecture_family("mlp") == "mlp"
    with pytest.raises(ValueError):
        architecture_family("alexnet")


def test_classifier_predictions_are_consistent(trained_mlp, tiny_test_dataset):
    proba = trained_mlp.predict_proba(tiny_test_dataset.images)
    assert proba.shape == (len(tiny_test_dataset), tiny_test_dataset.num_classes)
    assert np.allclose(proba.sum(axis=1), 1.0)
    predictions = trained_mlp.predict(tiny_test_dataset.images)
    assert np.array_equal(predictions, np.argmax(proba, axis=1))
    accuracy = trained_mlp.evaluate(tiny_test_dataset)
    assert accuracy > 0.5  # the tiny task is learnable


def test_classifier_evaluate_attack_success(trained_mlp, tiny_test_dataset):
    target = 0
    asr_all = trained_mlp.evaluate_attack_success(tiny_test_dataset.images, target)
    asr_excluding = trained_mlp.evaluate_attack_success(
        tiny_test_dataset.images, target, tiny_test_dataset.labels
    )
    assert 0.0 <= asr_all <= 1.0
    assert 0.0 <= asr_excluding <= 1.0


def test_classifier_rejects_unknown_optimizer(tiny_dataset):
    classifier = build_classifier("mlp", tiny_dataset.num_classes, 12, rng=0)
    with pytest.raises(ValueError):
        classifier.fit(tiny_dataset, TrainingConfig(epochs=1, optimizer="lbfgs"))


def test_training_history_val_accuracy(tiny_dataset, tiny_test_dataset):
    classifier = build_classifier("mlp", tiny_dataset.num_classes, 12, rng=0)
    history = classifier.fit(
        tiny_dataset,
        TrainingConfig(epochs=2, batch_size=16, learning_rate=1e-2),
        rng=0,
        val_dataset=tiny_test_dataset,
    )
    assert len(history.val_accuracies) == 2


def test_classifier_batched_prediction_matches_single_batch(trained_mlp, tiny_test_dataset):
    full = trained_mlp.predict_logits(tiny_test_dataset.images, batch_size=1000)
    chunked = trained_mlp.predict_logits(tiny_test_dataset.images, batch_size=7)
    assert np.allclose(full, chunked)


def test_image_classifier_wraps_any_module(rng):
    from repro.models.mlp import MLPNet

    model = MLPNet(num_classes=3, input_dim=3 * 12 * 12, rng=0)
    classifier = ImageClassifier(model, num_classes=3, name="custom")
    logits = classifier.predict_logits(rng.random((2, 3, 12, 12)))
    assert logits.shape == (2, 3)


@pytest.mark.parametrize("architecture", ["resnet18", "mobilenetv2", "vit", "mlp"])
def test_inference_retains_no_backward_state(architecture):
    """predict_proba and features run under no_grad(), so after they return
    the model holds nothing of the pass: a 128-image predict_proba used to
    leave the im2col buffers, BatchNorm x_hat, masks and attention maps behind
    (17.9 MB on resnet18, 40.8 MB on mobilenetv2)."""
    import tracemalloc

    images = np.random.default_rng(0).normal(size=(128, 3, 16, 16))
    calls = {
        "predict_proba": lambda clf: clf.predict_proba(images),
        "features": lambda clf: clf.features(images),
    }
    # a pass on another instance first, so no one-time cache outside the
    # model counts as retained
    warm = build_classifier(architecture, 6, image_size=16, rng=4)
    for call in calls.values():
        call(warm)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for name, call in calls.items():
            classifier = build_classifier(architecture, 6, image_size=16, rng=3)
            before = tracemalloc.get_traced_memory()[0]
            out = call(classifier)
            retained = tracemalloc.get_traced_memory()[0] - before - out.nbytes
            assert retained < 64 * 1024, f"{name} retained {retained} bytes"
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("architecture", ["resnet18", "mobilenetv2", "vit", "mlp"])
def test_inference_on_no_images_returns_empty_rows(architecture):
    """An empty batch gives ``(0, width)`` rows from every chunked forward:
    ``num_classes`` logits and ``feature_dim`` features, in the model's dtype."""
    classifier = build_classifier(architecture, 6, image_size=16, rng=0)
    empty = np.zeros((0, 3, 16, 16))
    logits = classifier.predict_logits(empty)
    features = classifier.features(empty)
    assert logits.shape == (0, 6)
    assert features.shape == (0, classifier.model.feature_dim)
    assert logits.dtype == features.dtype == classifier.dtype


def test_resnet18_inference_peak_holds_one_tile_of_columns():
    """A 128-image float64 resnet18 predict_proba unfolds each conv one image
    tile at a time, so its tracemalloc peak stays under 12 MiB; building the
    whole batch's 18 MiB column matrix per conv read 24.7 MiB."""
    import tracemalloc

    images = np.random.default_rng(0).normal(size=(128, 3, 16, 16))
    classifier = build_classifier("resnet18", 6, image_size=16, rng=3)
    classifier.predict_proba(images)  # one-time caches, such as the gather indices
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        classifier.predict_proba(images)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "architecture,step_mib,retained_mib,frozen_mib",
    [("resnet18", 16, 8, 5), ("mobilenetv2", 20, 14, None)],
)
def test_training_step_keeps_inputs_not_column_matrices(
    architecture, step_mib, retained_mib, frozen_mib
):
    """One warmed-up float64 training step on 32 16-pixel images (forward,
    CrossEntropyLoss, backward, Adam) keeps each trainable conv's input, not
    its whole-batch column matrix, and folds input gradients one image tile
    at a time.  Under tracemalloc, with the columns kept and folded whole,
    the step peaked at 23.8 MiB on resnet18 and 26.3 on mobilenetv2, left
    16.7 and 20.7 MiB on the model beyond its gradients, and a frozen,
    white-box-prompting step through resnet18 peaked at 7.3 MiB; keeping
    inputs reads 11.3, 15.3, 4.3, 9.8 and 3.6 MiB.  mobilenetv2's frozen
    step reads 5.1 MiB either way: its peak is an eval BatchNorm2d
    backward, not a conv."""
    import tracemalloc

    from repro import nn

    images = np.random.default_rng(0).normal(size=(32, 3, 16, 16))
    labels = np.arange(32) % 6
    model = build_classifier(architecture, 6, image_size=16, rng=3).model
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    criterion = nn.CrossEntropyLoss()

    def step(trainable):
        criterion(model(images), labels)
        optimizer.zero_grad()
        model.backward(criterion.backward())
        if trainable:
            optimizer.step()

    def measure(trainable):
        """The step's peak and what it leaves behind beyond its gradients,
        after a warm-up step and a no_grad forward that drops the state the
        warm-up kept."""
        step(trainable)
        with nn.no_grad():
            model(images)
        optimizer.zero_grad()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step(trainable)
        current, peak = tracemalloc.get_traced_memory()
        grads = sum(param.grad.nbytes for param in model.parameters() if param.grad is not None)
        return (peak - before) / 2**20, (current - before - grads) / 2**20

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        model.train()
        peak, retained = measure(trainable=True)
        model.eval()
        model.freeze()
        frozen_peak, _ = measure(trainable=False)
    finally:
        if started:
            tracemalloc.stop()
    assert peak < step_mib, f"step peak {peak:.1f} MiB"
    assert retained < retained_mib, f"step retained {retained:.1f} MiB"
    if frozen_mib is not None:
        assert frozen_peak < frozen_mib, f"frozen step peak {frozen_peak:.1f} MiB"
