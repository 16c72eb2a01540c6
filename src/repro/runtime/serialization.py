"""Round-tripping pipeline components through artifact directories.

Everything is stored as ``.npz`` array blobs (via :mod:`repro.nn.serialization`
conventions) plus JSON metadata, so artifacts are portable, inspectable and
independent of pickle.  Loaders rebuild objects through the public registries
(:func:`repro.models.registry.build_classifier` etc.) and then restore exact
numeric state, which is what makes reloaded detectors produce bit-identical
scores.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.shadow import ShadowModel
from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.models.registry import build_classifier
from repro.prompting.output_mapping import LabelMapping
from repro.prompting.prompt import VisualPrompt
from repro.prompting.prompted import PromptedClassifier
from repro.runtime.store import Artifact


# -- classifiers --------------------------------------------------------------

def save_classifier(artifact: Artifact, classifier: ImageClassifier, name: str = "classifier") -> None:
    """Persist a classifier's weights plus the build spec needed to rebuild it."""
    if classifier.architecture is None or classifier.image_size is None:
        raise ValueError(
            f"classifier {classifier.name!r} has no recorded architecture/image_size; "
            "build it through repro.models.registry.build_classifier to make it persistable"
        )
    artifact.save_arrays(name, classifier.state_dict())
    artifact.save_json(
        f"{name}.meta",
        {
            "architecture": classifier.architecture,
            "num_classes": classifier.num_classes,
            "image_size": classifier.image_size,
            "in_channels": classifier.in_channels,
            "name": classifier.name,
        },
    )


def load_classifier(artifact: Artifact, name: str = "classifier") -> ImageClassifier:
    meta = artifact.load_json(f"{name}.meta")
    classifier = build_classifier(
        meta["architecture"],
        meta["num_classes"],
        image_size=meta["image_size"],
        in_channels=meta["in_channels"],
        rng=0,
        name=meta["name"],
    )
    classifier.load_state_dict(artifact.load_arrays(name))
    return classifier


# -- datasets -----------------------------------------------------------------

def save_dataset(artifact: Artifact, dataset: ImageDataset, name: str = "dataset") -> None:
    artifact.save_arrays(
        name,
        {
            "images": dataset.images,
            "labels": dataset.labels,
            "num_classes": np.asarray([dataset.num_classes], dtype=np.int64),
        },
    )
    artifact.save_json(f"{name}.meta", {"name": dataset.name})


def load_dataset(artifact: Artifact, name: str = "dataset") -> ImageDataset:
    arrays = artifact.load_arrays(name)
    meta = artifact.load_json(f"{name}.meta")
    return ImageDataset(
        arrays["images"],
        arrays["labels"],
        num_classes=int(arrays["num_classes"].ravel()[0]),
        name=meta["name"],
    )


# -- prompts / prompted classifiers -------------------------------------------

def save_prompted(artifact: Artifact, prompted: PromptedClassifier, name: str = "prompted") -> None:
    """Persist the prompt and label mapping of one prompted classifier.

    The frozen source classifier is *not* stored here — it is an independent
    artifact (or an in-memory object the caller already owns) that must be
    supplied again at load time.
    """
    artifact.save_arrays(
        name,
        {
            "theta": prompted.prompt.theta,
            "assignment": prompted.mapping.assignment,
        },
    )
    artifact.save_json(
        f"{name}.meta",
        {
            "name": prompted.name,
            "source_size": prompted.prompt.source_size,
            "inner_size": prompted.prompt.inner_size,
            "channels": prompted.prompt.channels,
            "num_source_classes": prompted.mapping.num_source_classes,
            "num_target_classes": prompted.mapping.num_target_classes,
            "mapping_mode": prompted.mapping.mode,
        },
    )


def load_prompted(
    artifact: Artifact,
    source_classifier: ImageClassifier,
    name: str = "prompted",
) -> PromptedClassifier:
    arrays = artifact.load_arrays(name)
    meta = artifact.load_json(f"{name}.meta")
    prompt = VisualPrompt(
        source_size=meta["source_size"],
        inner_size=meta["inner_size"],
        channels=meta["channels"],
        init_scale=0.0,
    )
    prompt.theta = np.asarray(arrays["theta"], dtype=np.float64)
    mapping = LabelMapping(
        num_source_classes=meta["num_source_classes"],
        num_target_classes=meta["num_target_classes"],
        mode=meta["mapping_mode"],
    )
    mapping.assignment = np.asarray(arrays["assignment"], dtype=np.int64)
    return PromptedClassifier(source_classifier, prompt, mapping, name=meta["name"])


# -- shadow pools -------------------------------------------------------------

def save_shadow_pool(artifact: Artifact, pool: List[ShadowModel]) -> None:
    entries = []
    for index, shadow in enumerate(pool):
        save_classifier(artifact, shadow.classifier, name=f"shadow-{index}")
        entries.append(
            {
                "is_backdoored": shadow.is_backdoored,
                "attack_name": shadow.attack_name,
                "target_class": shadow.target_class,
                "clean_accuracy": shadow.clean_accuracy,
            }
        )
    artifact.save_json("pool", {"size": len(pool), "entries": entries})


def load_shadow_pool(artifact: Artifact) -> List[ShadowModel]:
    manifest = artifact.load_json("pool")
    pool = []
    for index, entry in enumerate(manifest["entries"]):
        pool.append(
            ShadowModel(
                classifier=load_classifier(artifact, name=f"shadow-{index}"),
                is_backdoored=bool(entry["is_backdoored"]),
                attack_name=entry["attack_name"],
                target_class=entry["target_class"],
                clean_accuracy=float(entry["clean_accuracy"]),
            )
        )
    return pool


def save_prompted_pool(artifact: Artifact, prompted: List[PromptedClassifier]) -> None:
    for index, item in enumerate(prompted):
        save_prompted(artifact, item, name=f"prompt-{index}")
    artifact.save_json("prompts", {"size": len(prompted)})


def load_prompted_pool(
    artifact: Artifact, source_classifiers: List[ImageClassifier]
) -> List[PromptedClassifier]:
    manifest = artifact.load_json("prompts")
    if manifest["size"] != len(source_classifiers):
        raise ValueError(
            f"prompted-pool artifact holds {manifest['size']} prompts but "
            f"{len(source_classifiers)} source classifiers were supplied"
        )
    return [
        load_prompted(artifact, source, name=f"prompt-{index}")
        for index, source in enumerate(source_classifiers)
    ]


# -- meta-classifier ----------------------------------------------------------

def save_meta_classifier(artifact: Artifact, meta, name: str = "meta") -> None:
    """Persist a fitted :class:`repro.core.meta.MetaClassifier`."""
    state, info = meta.get_state()
    artifact.save_arrays(name, state)
    artifact.save_json(f"{name}.meta", info)


def load_meta_classifier(artifact: Artifact, name: str = "meta"):
    from repro.core.meta import MetaClassifier

    return MetaClassifier.from_state(
        artifact.load_json(f"{name}.meta"), artifact.load_arrays(name)
    )
