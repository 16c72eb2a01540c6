"""Architecture registry mapping the paper's model names onto the scaled-down zoo."""

from __future__ import annotations

from typing import Tuple

from repro.models.classifier import ImageClassifier
from repro.models.mlp import MLPNet
from repro.models.mobilenet import TinyMobileNet
from repro.models.resnet import TinyResNet
from repro.models.vit import TinyViT
from repro.nn.module import Module
from repro.utils.rng import SeedLike

_RESNET_ALIASES = ("resnet18", "resnet", "tinyresnet")
_MOBILENET_ALIASES = ("mobilenetv2", "mobilenet", "tinymobilenet")
_VIT_ALIASES = ("mobilevit", "swin", "swim", "vit", "tinyvit")
_MLP_ALIASES = ("mlp",)


def available_architectures() -> Tuple[str, ...]:
    """Canonical architecture names accepted by :func:`build_model`."""
    return ("resnet18", "mobilenetv2", "mobilevit", "swin", "mlp")


def architecture_family(architecture: str) -> str:
    """Coarse family of an architecture name: "cnn", "transformer" or "mlp".

    The gateway routes a submission to a tenant of the same family, and
    :class:`~repro.runtime.registry.DetectorSpec` validates its architecture
    and reports its family with it.
    """
    arch = architecture.lower()
    if arch in _RESNET_ALIASES or arch in _MOBILENET_ALIASES:
        return "cnn"
    if arch in _VIT_ALIASES:
        return "transformer"
    if arch in _MLP_ALIASES:
        return "mlp"
    raise ValueError(
        f"unknown architecture {architecture!r}; available: {available_architectures()}"
    )


def build_model(
    architecture: str,
    num_classes: int,
    image_size: int = 16,
    in_channels: int = 3,
    rng: SeedLike = None,
) -> Module:
    """Construct a model of the requested family (paper names are aliases)."""
    arch = architecture.lower()
    if arch in _RESNET_ALIASES:
        return TinyResNet(num_classes, in_channels=in_channels, rng=rng)
    if arch in _MOBILENET_ALIASES:
        return TinyMobileNet(num_classes, in_channels=in_channels, rng=rng)
    if arch in _VIT_ALIASES:
        patch = 4 if image_size % 4 == 0 else 2
        return TinyViT(
            num_classes,
            image_size=image_size,
            patch_size=patch,
            in_channels=in_channels,
            rng=rng,
        )
    if arch in _MLP_ALIASES:
        return MLPNet(num_classes, input_dim=in_channels * image_size * image_size, rng=rng)
    raise ValueError(
        f"unknown architecture {architecture!r}; available: {available_architectures()}"
    )


def build_classifier(
    architecture: str,
    num_classes: int,
    image_size: int = 16,
    in_channels: int = 3,
    rng: SeedLike = None,
    name: str | None = None,
) -> ImageClassifier:
    """Build a model and wrap it in an :class:`ImageClassifier`."""
    model = build_model(architecture, num_classes, image_size, in_channels, rng)
    return ImageClassifier(
        model,
        num_classes,
        name=name or architecture,
        architecture=architecture.lower(),
        image_size=image_size,
        in_channels=in_channels,
    )
