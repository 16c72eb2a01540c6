"""Tests for visual prompting: the prompt operator, white-box and black-box training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PromptConfig
from repro.prompting import (
    LabelMapping,
    PromptedClassifier,
    VisualPrompt,
    train_prompt_blackbox,
    train_prompt_whitebox,
)


def test_prompt_apply_shapes_and_range(tiny_dataset):
    prompt = VisualPrompt(source_size=12, inner_size=8, channels=3, rng=0)
    prompted = prompt.apply(tiny_dataset.images[:5])
    assert prompted.shape == (5, 3, 12, 12)
    assert prompted.min() >= 0.0 and prompted.max() <= 1.0


def test_prompt_border_mask_geometry():
    prompt = VisualPrompt(source_size=12, inner_size=8, channels=3, rng=0)
    mask = prompt.border_mask
    assert mask.shape == (3, 12, 12)
    assert mask[:, 2:10, 2:10].sum() == 0  # interior is untouched by the prompt
    assert prompt.num_parameters == int(mask.sum()) == 3 * (12 * 12 - 8 * 8)


def test_prompt_preserves_resized_content_in_centre(tiny_dataset):
    prompt = VisualPrompt(source_size=12, inner_size=8, channels=3, init_scale=0.0)
    prompted = prompt.apply(tiny_dataset.images[:2])
    from repro.datasets.transforms import resize_batch

    resized = resize_batch(tiny_dataset.images[:2], 8)
    assert np.allclose(prompted[:, :, 2:10, 2:10], np.clip(resized, 0, 1))


def test_prompt_flat_round_trip():
    prompt = VisualPrompt(source_size=12, inner_size=8, channels=3, rng=0)
    flat = prompt.get_flat()
    prompt.set_flat(flat * 2.0)
    assert np.allclose(prompt.get_flat(), flat * 2.0)
    with pytest.raises(ValueError):
        prompt.set_flat(np.zeros(3))


def test_prompt_validates_sizes():
    with pytest.raises(ValueError):
        VisualPrompt(source_size=8, inner_size=10)


def test_prompt_gradient_interface(rng):
    prompt = VisualPrompt(source_size=12, inner_size=8, channels=3, rng=0)
    grad_batch = rng.normal(size=(4, 3, 12, 12))
    prompt.zero_grad()
    prompt.accumulate_grad(grad_batch)
    # interior gradient entries are masked out
    assert np.allclose(prompt.grad[:, 2:10, 2:10], 0.0)
    before = prompt.theta.copy()
    prompt.apply_gradient_step(0.1)
    assert not np.allclose(prompt.theta, before)


def test_label_mapping_identity_and_frequency(rng):
    mapping = LabelMapping(num_source_classes=5, num_target_classes=3, mode="identity")
    probs = rng.random((6, 5))
    mapped = mapping.map_probabilities(probs)
    assert mapped.shape == (6, 3)
    assert np.allclose(mapped, probs[:, :3])
    frequency = LabelMapping(5, 3, mode="frequency")
    source_probs = np.zeros((9, 5))
    # target class 0 always lands on source class 4
    source_probs[:3, 4] = 1.0
    source_probs[3:6, 1] = 1.0
    source_probs[6:, 2] = 1.0
    frequency.fit(source_probs, np.array([0, 0, 0, 1, 1, 1, 2, 2, 2]))
    assert frequency.assignment[0] == 4
    assert frequency.assignment[1] == 1


def test_label_mapping_validation():
    with pytest.raises(ValueError):
        LabelMapping(0, 3)
    with pytest.raises(ValueError):
        LabelMapping(3, 3, mode="learned")
    mapping = LabelMapping(4, 2)
    with pytest.raises(ValueError):
        mapping.map_probabilities(np.zeros((2, 5)))


def _prompt_config():
    return PromptConfig(
        source_size=12,
        inner_size=8,
        epochs=4,
        batch_size=16,
        learning_rate=5e-2,
        blackbox_iterations=5,
        blackbox_population=4,
    )


def test_whitebox_prompt_training_reduces_loss(trained_mlp, tiny_dataset, tiny_test_dataset):
    prompted = train_prompt_whitebox(trained_mlp, tiny_dataset, _prompt_config(), rng=0)
    assert isinstance(prompted, PromptedClassifier)
    losses = prompted.training_losses
    assert losses[-1] <= losses[0]
    accuracy = prompted.evaluate(tiny_test_dataset)
    assert 0.0 <= accuracy <= 1.0
    vector = prompted.query_feature_vector(tiny_test_dataset.images[:3])
    assert vector.shape == (3 * trained_mlp.num_classes,)


def test_whitebox_prompting_leaves_source_model_unchanged(trained_mlp, tiny_dataset):
    before = {name: p.data.copy() for name, p in trained_mlp.model.named_parameters()}
    train_prompt_whitebox(trained_mlp, tiny_dataset, _prompt_config(), rng=0)
    after = dict(trained_mlp.model.named_parameters())
    for name, original in before.items():
        assert np.allclose(original, after[name].data)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("architecture", ["resnet18", "mobilenetv2", "vit", "mlp"])
def test_whitebox_prompting_on_a_frozen_model_equals_the_trainable_run(
    architecture, dtype, tiny_dataset, monkeypatch
):
    """Freezing the source model only skips weight-gradient work: the prompt
    bytes and losses equal a run whose Module.freeze is a no-op, so every
    layer computes (and zero_grad drops) its weight gradients."""
    from repro import nn
    from repro.models.registry import build_classifier
    from repro.nn.module import Module

    config = PromptConfig(source_size=12, inner_size=8, epochs=1, batch_size=16)

    def run():
        classifier = build_classifier(architecture, 4, image_size=12, rng=5)
        # off-default normalisation parameters, so a reordered step rounds
        values = np.random.default_rng(7)
        for module in classifier.model.modules():
            if isinstance(module, (nn.BatchNorm1d, nn.BatchNorm2d, nn.LayerNorm)):
                size = module.num_features
                module.gamma.data = values.uniform(0.5, 1.5, size=size)
                module.beta.data = values.normal(size=size)
            if isinstance(module, (nn.BatchNorm1d, nn.BatchNorm2d)):
                module.set_buffer("running_mean", values.normal(size=size))
                module.set_buffer("running_var", values.uniform(0.5, 1.5, size=size))
        classifier.astype(dtype)
        prompted = train_prompt_whitebox(classifier, tiny_dataset, config, rng=0)
        return prompted.prompt.get_flat().tobytes(), prompted.training_losses

    frozen = run()
    monkeypatch.setattr(Module, "freeze", lambda self: self)
    assert run() == frozen


def _mlp_classifier(tiny_dataset):
    from repro.models.registry import build_classifier

    return build_classifier("mlp", tiny_dataset.num_classes, image_size=12, rng=0)


def test_whitebox_prompting_restores_a_caller_frozen_parameter(tiny_dataset):
    classifier = _mlp_classifier(tiny_dataset)
    classifier.model.head.weight.requires_grad = False
    before = [param.requires_grad for param in classifier.model.parameters()]
    config = PromptConfig(source_size=12, inner_size=8, epochs=1, batch_size=16)
    train_prompt_whitebox(classifier, tiny_dataset, config, rng=0)
    assert [param.requires_grad for param in classifier.model.parameters()] == before
    assert not classifier.model.head.weight.requires_grad


def test_whitebox_prompting_unfreezes_the_model_when_training_raises(tiny_dataset, monkeypatch):
    classifier = _mlp_classifier(tiny_dataset)

    def fail(self, grad):
        raise ArithmeticError("prompt step failed")

    monkeypatch.setattr(VisualPrompt, "accumulate_grad", fail)
    config = PromptConfig(source_size=12, inner_size=8, epochs=1, batch_size=16)
    with pytest.raises(ArithmeticError):
        train_prompt_whitebox(classifier, tiny_dataset, config, rng=0)
    assert all(param.requires_grad for param in classifier.model.parameters())


def test_blackbox_prompt_training_uses_only_queries(trained_mlp, tiny_dataset):
    calls = {"count": 0}

    def query(images):
        calls["count"] += 1
        return trained_mlp.predict_proba(images)

    prompted = train_prompt_blackbox(
        trained_mlp, tiny_dataset, _prompt_config(), rng=0, query_function=query
    )
    assert calls["count"] > 1
    assert prompted.optimization_result.evaluations > 1
    probabilities = prompted.predict_source_proba(tiny_dataset.images[:4])
    assert probabilities.shape == (4, trained_mlp.num_classes)


@pytest.mark.parametrize("optimizer", ["cma-es", "spsa", "random"])
def test_blackbox_prompting_supports_all_optimizers(optimizer, trained_mlp, tiny_dataset):
    config = PromptConfig(
        source_size=12, inner_size=8, epochs=1, batch_size=8,
        blackbox_optimizer=optimizer, blackbox_iterations=3, blackbox_population=4,
    )
    prompted = train_prompt_blackbox(trained_mlp, tiny_dataset, config, rng=0)
    assert prompted.optimization_result.best_value >= 0.0
