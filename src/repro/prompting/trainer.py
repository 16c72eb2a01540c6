"""White-box (gradient) prompt training, used for the defender's shadow models."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import nn
from repro.config import PromptConfig
from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.nn.parameter import Parameter
from repro.prompting.output_mapping import LabelMapping
from repro.prompting.prompt import VisualPrompt
from repro.prompting.prompted import PromptedClassifier
from repro.utils.rng import SeedLike, new_rng


def train_prompt_whitebox(
    source_classifier: ImageClassifier,
    target_train: ImageDataset,
    config: Optional[PromptConfig] = None,
    mapping_mode: str = "identity",
    rng: SeedLike = None,
    name: str = "prompted",
) -> PromptedClassifier:
    """Learn a visual prompt for a *shadow* model by backpropagation.

    The source model is frozen (its parameters receive no updates); gradients
    flow through it into the prompt only, exactly as in Bahng et al. (2022).
    Returns the prompted classifier ``f_T = O ∘ f_S ∘ V`` with the optimised
    prompt.
    """
    config = config or PromptConfig()
    rng = new_rng(rng)
    model = source_classifier.model
    model.eval()  # freeze BatchNorm statistics; VP adapts inputs, not the model

    channels = 3
    prompt = VisualPrompt(
        source_size=config.source_size,
        inner_size=config.inner_size,
        channels=channels,
        rng=rng,
    )
    mapping = LabelMapping(
        num_source_classes=source_classifier.num_classes,
        num_target_classes=target_train.num_classes,
        mode=mapping_mode,
    )
    criterion = nn.CrossEntropyLoss()

    # the flat border vector is an ordinary Parameter driven by the shared
    # nn.optim Adam — no hand-rolled moment/bias-correction state here
    flat_param = Parameter(prompt.get_flat(), name="prompt")
    optimizer = nn.Adam([flat_param], lr=config.learning_rate)
    border = prompt.border_mask > 0
    losses: List[float] = []

    # frozen layers keep no weight-gradient operands and skip the weight
    # gradients; every caller-set flag comes back, also after an error
    params = model.parameters()
    trainable = [param.requires_grad for param in params]
    model.freeze()
    try:
        for _ in range(config.epochs):
            epoch_losses = []
            for target_images, target_labels in target_train.batches(
                config.batch_size, shuffle=True, rng=rng
            ):
                source_labels = mapping.target_labels_as_source(target_labels)
                prompted = prompt.apply(target_images)
                logits = model(prompted)
                loss = criterion(logits, source_labels)
                grad_logits = criterion.backward()
                grad_input = model.backward(grad_logits)
                model.zero_grad()

                prompt.zero_grad()
                prompt.accumulate_grad(grad_input)
                optimizer.zero_grad()
                flat_param.accumulate_grad(prompt.grad[border])
                optimizer.step()
                prompt.set_flat(flat_param.data)
                epoch_losses.append(loss)
            losses.append(float(np.mean(epoch_losses)))

        if mapping_mode == "frequency":
            prompted_probs = source_classifier.predict_proba(prompt.apply(target_train.images))
            mapping.fit(prompted_probs, target_train.labels)
    finally:
        for param, flag in zip(params, trainable):
            param.requires_grad = flag

    prompted_classifier = PromptedClassifier(source_classifier, prompt, mapping, name=name)
    prompted_classifier.training_losses = losses  # type: ignore[attr-defined]
    return prompted_classifier
