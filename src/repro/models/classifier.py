"""ImageClassifier: training loop, batched inference and evaluation utilities.

This wrapper is the unit every other subsystem manipulates: attacks train
backdoored classifiers, BPROM trains shadow classifiers and prompts suspicious
classifiers, and the defenses query classifiers for probabilities or features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro import nn
from repro.config import TrainingConfig
from repro.datasets.base import ImageDataset
from repro.datasets.transforms import random_horizontal_flip
from repro.nn.functional import accuracy, softmax
from repro.nn.module import Module
from repro.utils.rng import SeedLike, new_rng


@dataclass
class TrainingHistory:
    """Per-epoch loss/accuracy curves recorded by :meth:`ImageClassifier.fit`."""

    losses: List[float] = field(default_factory=list)
    train_accuracies: List[float] = field(default_factory=list)
    val_accuracies: List[float] = field(default_factory=list)

    @property
    def final_train_accuracy(self) -> float:
        return self.train_accuracies[-1] if self.train_accuracies else float("nan")


class ImageClassifier:
    """A trainable image classifier built from one of the zoo models.

    Parameters
    ----------
    model:
        A module exposing ``forward``, ``backward``, ``features`` and
        ``feature_dim``.
    num_classes:
        Number of output classes (must match the model head).
    name:
        Identifier used in experiment reports (e.g. ``"resnet18/cifar10"``).
    """

    def __init__(
        self,
        model: Module,
        num_classes: int,
        name: str = "classifier",
        architecture: Optional[str] = None,
        image_size: Optional[int] = None,
        in_channels: int = 3,
    ) -> None:
        self.model = model
        self.num_classes = int(num_classes)
        self.name = name
        #: build spec (set by the registry) — lets the artifact store rebuild
        #: the wrapped model from its saved state dict
        self.architecture = architecture
        self.image_size = image_size
        self.in_channels = int(in_channels)
        self.history = TrainingHistory()

    # -- precision ------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """Parameter dtype of the wrapped model (the precision tier it runs in)."""
        params = self.model.parameters()
        return params[0].data.dtype if params else np.dtype(np.float64)

    def astype(self, dtype) -> "ImageClassifier":
        """Cast the wrapped model into a precision tier (see ``Module.astype``)."""
        self.model.astype(dtype)
        return self

    def _as_input(self, images: np.ndarray) -> np.ndarray:
        """Match inputs to the model's precision tier.

        float64 models see their inputs untouched (the historical behaviour,
        preserving bit-identity); float32 models cast so the whole pass runs
        in float32 instead of silently upcasting at the first matmul.
        """
        if self.dtype == np.float32:
            return np.asarray(images, dtype=np.float32)
        return images

    # -- state ----------------------------------------------------------------
    def state_dict(self) -> dict:
        """Parameter/buffer arrays of the wrapped model (see :class:`Module`)."""
        return self.model.state_dict()

    def load_state_dict(self, state: dict) -> "ImageClassifier":
        self.model.load_state_dict(state)
        return self

    # -- training -----------------------------------------------------------
    def _make_optimizer(self, config: TrainingConfig) -> nn.optim.Optimizer:
        params = self.model.parameters()
        if config.optimizer.lower() == "sgd":
            return nn.SGD(
                params,
                lr=config.learning_rate,
                momentum=0.9,
                weight_decay=config.weight_decay,
            )
        if config.optimizer.lower() == "adam":
            return nn.Adam(
                params, lr=config.learning_rate, weight_decay=config.weight_decay
            )
        raise ValueError(f"unknown optimizer {config.optimizer!r}")

    def fit(
        self,
        train_dataset: ImageDataset,
        config: Optional[TrainingConfig] = None,
        rng: SeedLike = None,
        val_dataset: Optional[ImageDataset] = None,
        augment: bool = False,
        epoch_callback: Optional[Callable[[int, float], None]] = None,
    ) -> TrainingHistory:
        """Train the wrapped model on ``train_dataset``; returns the loss history."""
        config = config or TrainingConfig()
        rng = new_rng(rng)
        optimizer = self._make_optimizer(config)
        criterion = nn.CrossEntropyLoss(label_smoothing=config.label_smoothing)
        self.model.train()
        history = TrainingHistory()
        for epoch in range(config.epochs):
            epoch_losses = []
            epoch_accs = []
            for images, labels in train_dataset.batches(
                config.batch_size, shuffle=True, rng=rng
            ):
                if augment:
                    images = random_horizontal_flip(images, rng=rng)
                logits = self.model(self._as_input(images))
                loss = criterion(logits, labels)
                optimizer.zero_grad()
                self.model.backward(criterion.backward())
                optimizer.step()
                epoch_losses.append(loss)
                epoch_accs.append(accuracy(logits, labels))
            history.losses.append(float(np.mean(epoch_losses)))
            history.train_accuracies.append(float(np.mean(epoch_accs)))
            if val_dataset is not None:
                history.val_accuracies.append(self.evaluate(val_dataset))
                self.model.train()
            if epoch_callback is not None:
                epoch_callback(epoch, history.losses[-1])
        self.model.eval()
        self.history = history
        return history

    # -- inference ------------------------------------------------------------
    def _forward_in_chunks(
        self, forward: Callable, images: np.ndarray, batch_size: int, width: int
    ) -> np.ndarray:
        """``forward`` over ``batch_size``-image chunks, concatenated; the
        model is switched to eval mode and the forwards run under
        ``nn.no_grad()``, keeping no backward state.  No images give a
        ``(0, width)`` array."""
        self.model.eval()
        images = self._as_input(images)
        with nn.no_grad():
            outputs = [
                forward(images[start : start + batch_size])
                for start in range(0, images.shape[0], batch_size)
            ]
        if not outputs:
            return np.empty((0, width), dtype=self.dtype)
        return np.concatenate(outputs, axis=0)

    def predict_logits(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Raw logits for an NCHW batch, shape ``(N, num_classes)``."""
        return self._forward_in_chunks(self.model, images, batch_size, self.num_classes)

    def predict_proba(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Softmax confidence vectors — the only view a black-box defender gets."""
        return softmax(self.predict_logits(images, batch_size), axis=1)

    def predict(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Hard label predictions."""
        return np.argmax(self.predict_logits(images, batch_size), axis=1)

    def features(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Penultimate-layer features, shape ``(N, model.feature_dim)``
        (white-box defenses and visualisation only)."""
        return self._forward_in_chunks(
            self.model.features, images, batch_size, self.model.feature_dim
        )

    # -- evaluation -------------------------------------------------------------
    def evaluate(self, dataset: ImageDataset, batch_size: int = 256) -> float:
        """Top-1 accuracy on a dataset."""
        if len(dataset) == 0:
            return 0.0
        logits = self.predict_logits(dataset.images, batch_size)
        return accuracy(logits, dataset.labels)

    def evaluate_attack_success(
        self,
        triggered_images: np.ndarray,
        target_class: int,
        original_labels: Optional[np.ndarray] = None,
    ) -> float:
        """Attack success rate: fraction of triggered inputs classified as the target.

        When ``original_labels`` is provided, samples already belonging to the
        target class are excluded (the standard ASR convention).
        """
        if triggered_images.shape[0] == 0:
            return 0.0
        predictions = self.predict(triggered_images)
        if original_labels is not None:
            keep = np.asarray(original_labels) != target_class
            if not np.any(keep):
                return 0.0
            predictions = predictions[keep]
        return float(np.mean(predictions == target_class))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ImageClassifier(name={self.name!r}, classes={self.num_classes})"
