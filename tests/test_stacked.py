"""Tests for the stacked shadow-pool training engine (repro.nn.stacked)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.config import RuntimeConfig, TrainingConfig
from repro.core.detector import BpromDetector
from repro.core.shadow import ShadowModelFactory
from repro.models.registry import architecture_family, build_classifier
from repro.nn.stacked import (
    UnstackableModelError,
    fit_stacked,
    stack_modules,
    unstack_modules,
)


def _assert_pools_match(left, right, tolerance=1e-9):
    assert [s.is_backdoored for s in left] == [s.is_backdoored for s in right]
    assert [s.target_class for s in left] == [s.target_class for s in right]
    assert [s.attack_name for s in left] == [s.attack_name for s in right]
    for a, b in zip(left, right):
        assert a.clean_accuracy == pytest.approx(b.clean_accuracy, abs=tolerance)
        assert a.classifier.history.losses == pytest.approx(
            b.classifier.history.losses, abs=tolerance
        )
        state_a, state_b = a.classifier.state_dict(), b.classifier.state_dict()
        assert set(state_a) == set(state_b)
        for key in state_a:
            np.testing.assert_allclose(
                state_a[key], state_b[key], rtol=0.0, atol=tolerance, err_msg=key
            )


@pytest.mark.parametrize("architecture", ["mlp", "resnet18", "mobilenetv2", "vit"])
def test_stacked_pool_matches_sequential(micro_profile, tiny_dataset, architecture):
    profile = micro_profile
    if architecture != "mlp":
        # two epochs keep the conv/transformer variants fast; equivalence is
        # per-step, so the epoch count does not weaken the check
        profile = micro_profile.with_overrides(
            classifier=TrainingConfig(epochs=2, batch_size=16, learning_rate=1e-2)
        )
    sequential = ShadowModelFactory(
        profile=profile, architecture=architecture, seed=11, training_mode="sequential"
    ).build_pool(tiny_dataset, num_clean=2, num_backdoor=2)
    stacked = ShadowModelFactory(
        profile=profile, architecture=architecture, seed=11, training_mode="stacked"
    ).build_pool(tiny_dataset, num_clean=2, num_backdoor=2)
    _assert_pools_match(sequential, stacked)


def test_stacked_pool_with_sgd_matches_sequential(micro_profile, tiny_dataset):
    profile = micro_profile.with_overrides(
        classifier=TrainingConfig(epochs=3, batch_size=16, learning_rate=1e-2, optimizer="sgd")
    )
    sequential = ShadowModelFactory(
        profile=profile, architecture="mlp", seed=3, training_mode="sequential"
    ).build_pool(tiny_dataset, num_clean=1, num_backdoor=1)
    stacked = ShadowModelFactory(
        profile=profile, architecture="mlp", seed=3, training_mode="stacked"
    ).build_pool(tiny_dataset, num_clean=1, num_backdoor=1)
    _assert_pools_match(sequential, stacked)


def test_detector_verdicts_identical_across_modes(
    micro_profile, tiny_dataset, tiny_test_dataset
):
    def fit_and_inspect(mode):
        detector = BpromDetector(
            profile=micro_profile,
            architecture="mlp",
            seed=0,
            runtime=RuntimeConfig(shadow_training=mode),
        )
        detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset)
        suspicious = build_classifier(
            "mlp", tiny_dataset.num_classes, tiny_dataset.image_size, rng=99, name="sus"
        )
        suspicious.fit(tiny_dataset, micro_profile.classifier, rng=100)
        return detector.inspect(suspicious)

    sequential = fit_and_inspect("sequential")
    stacked = fit_and_inspect("stacked")
    assert stacked.backdoor_score == pytest.approx(sequential.backdoor_score, abs=1e-9)
    assert stacked.is_backdoored == sequential.is_backdoored
    assert stacked.prompted_accuracy == pytest.approx(
        sequential.prompted_accuracy, abs=1e-9
    )


def test_stacked_run_warms_cache_for_sequential_run(
    micro_profile, tiny_dataset, tiny_test_dataset, tmp_path
):
    """Artifact-store keys do not depend on the training mode (both directions)."""

    def fit(mode, cache_dir):
        detector = BpromDetector(
            profile=micro_profile,
            architecture="mlp",
            seed=0,
            runtime=RuntimeConfig(cache_dir=str(cache_dir), shadow_training=mode),
        )
        detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset)
        # the prompt stage can only load when the shadow pool did (its key
        # carries the pool's fingerprint), so two hits mean both stages loaded
        return detector, detector._store.hits

    first, first_hits = fit("stacked", tmp_path / "a")
    assert first_hits == 0
    second, second_hits = fit("sequential", tmp_path / "a")
    assert second_hits == 2  # stacked run warmed the cache

    third, third_hits = fit("sequential", tmp_path / "b")
    assert third_hits == 0
    fourth, fourth_hits = fit("stacked", tmp_path / "b")
    assert fourth_hits == 2  # ... and vice versa

    for left, right in ((first, second), (third, fourth)):
        for a, b in zip(left.shadow_models, right.shadow_models):
            for key, value in a.classifier.state_dict().items():
                np.testing.assert_array_equal(value, b.classifier.state_dict()[key])


def test_training_mode_resolution(monkeypatch):
    factory = ShadowModelFactory(architecture="mlp")
    monkeypatch.delenv("REPRO_SHADOW_TRAINING", raising=False)
    # auto policy: CNN/MLP pools stay sequential, transformer pools stack
    assert factory.resolve_training_mode() == "sequential"
    assert ShadowModelFactory(architecture="vit").resolve_training_mode() == "stacked"
    # the env var overrides the auto policy through RuntimeConfig.from_env,
    # the one place it is read; a factory never reads it itself
    monkeypatch.setenv("REPRO_SHADOW_TRAINING", "stacked")
    assert factory.resolve_training_mode() == "sequential"
    from_env = RuntimeConfig.from_env().shadow_training
    assert from_env == "stacked"
    configured = ShadowModelFactory(architecture="mlp", training_mode=from_env)
    assert configured.resolve_training_mode() == "stacked"
    # an explicit constructor mode is used as given
    explicit = ShadowModelFactory(architecture="mlp", training_mode="sequential")
    assert explicit.resolve_training_mode() == "sequential"
    monkeypatch.setenv("REPRO_SHADOW_TRAINING", "bogus")
    with pytest.raises(ValueError):
        RuntimeConfig.from_env()
    with pytest.raises(ValueError):
        ShadowModelFactory(architecture="mlp", training_mode="bogus").resolve_training_mode()


def test_architecture_family():
    assert architecture_family("resnet18") == "cnn"
    assert architecture_family("mobilenetv2") == "cnn"
    assert architecture_family("swin") == "transformer"
    assert architecture_family("mlp") == "mlp"
    with pytest.raises(ValueError):
        architecture_family("alexnet")


def test_runtime_config_validates_shadow_training():
    assert RuntimeConfig(shadow_training="stacked").shadow_training == "stacked"
    assert RuntimeConfig(shadow_training="Stacked").shadow_training == "stacked"
    with pytest.raises(ValueError):
        RuntimeConfig(shadow_training="turbo")


def test_auto_mode_yields_to_parallel_executor(
    micro_profile, tiny_dataset, monkeypatch
):
    """Under "auto" a multi-worker executor outranks stacking; explicit
    "stacked" keeps the model-axis engine even when an executor is supplied."""
    import repro.core.shadow as shadow_mod
    from repro.runtime.executor import WorkerPool

    calls = []
    original = shadow_mod.fit_stacked

    def recording_fit_stacked(*args, **kwargs):
        calls.append("stacked")
        return original(*args, **kwargs)

    monkeypatch.setattr(shadow_mod, "fit_stacked", recording_fit_stacked)
    profile = micro_profile.with_overrides(
        classifier=TrainingConfig(epochs=1, batch_size=16, learning_rate=1e-2)
    )
    with WorkerPool(2, "thread") as executor:
        auto = ShadowModelFactory(profile=profile, architecture="vit", seed=2)
        auto.build_pool(tiny_dataset, num_clean=1, num_backdoor=1, executor=executor)
        assert calls == []  # auto + parallel executor -> per-model fan-out

        forced = ShadowModelFactory(
            profile=profile, architecture="vit", seed=2, training_mode="stacked"
        )
        forced.build_pool(tiny_dataset, num_clean=1, num_backdoor=1, executor=executor)
        assert calls == ["stacked"]


def test_unstackable_fallback_uses_executor(micro_profile, tiny_dataset, monkeypatch):
    import repro.core.shadow as shadow_mod
    from repro.runtime.executor import WorkerPool

    def raise_unstackable(*args, **kwargs):
        raise UnstackableModelError("forced for the test")

    sequential = ShadowModelFactory(
        profile=micro_profile, architecture="mlp", seed=5, training_mode="sequential"
    ).build_pool(tiny_dataset, num_clean=1, num_backdoor=1)
    monkeypatch.setattr(shadow_mod, "fit_stacked", raise_unstackable)
    with WorkerPool(2, "thread") as pool:
        fallback = ShadowModelFactory(
            profile=micro_profile, architecture="mlp", seed=5, training_mode="stacked"
        ).build_pool(tiny_dataset, num_clean=1, num_backdoor=1, executor=pool)
    _assert_pools_match(sequential, fallback, tolerance=0.0)


def test_stack_modules_rejects_mixed_or_unknown_modules():
    with pytest.raises(UnstackableModelError):
        stack_modules([nn.Linear(4, 2, rng=0), nn.ReLU()])

    class Custom(nn.Module):
        def forward(self, x):
            return x

    with pytest.raises(UnstackableModelError):
        stack_modules([Custom(), Custom()])
    with pytest.raises(UnstackableModelError):
        stack_modules([nn.Dropout(0.5, rng=0), nn.Dropout(0.5, rng=1)])


def test_stack_unstack_roundtrip_preserves_state(tiny_dataset):
    models = [
        build_classifier("resnet18", 4, image_size=12, rng=seed).model for seed in (0, 1, 2)
    ]
    originals = [m.state_dict() for m in models]
    stacked = stack_modules(models)
    unstack_modules(stacked, models)
    for model, original in zip(models, originals):
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, original[key])


def test_fit_stacked_rejects_mismatched_dataset_lengths(micro_profile, tiny_dataset):
    classifiers = [
        build_classifier("mlp", tiny_dataset.num_classes, tiny_dataset.image_size, rng=i)
        for i in range(2)
    ]
    short = tiny_dataset.subset(range(len(tiny_dataset) - 4))
    with pytest.raises(UnstackableModelError):
        fit_stacked(classifiers, [tiny_dataset, short], micro_profile.classifier, rngs=[0, 1])


def test_unstackable_pool_falls_back_to_sequential(micro_profile, tiny_dataset, monkeypatch):
    """A pool the engine cannot lift still trains, with sequential-identical results."""
    import repro.core.shadow as shadow_mod

    def raise_unstackable(*args, **kwargs):
        raise UnstackableModelError("forced for the test")

    sequential = ShadowModelFactory(
        profile=micro_profile, architecture="mlp", seed=5, training_mode="sequential"
    ).build_pool(tiny_dataset, num_clean=1, num_backdoor=1)
    monkeypatch.setattr(shadow_mod, "fit_stacked", raise_unstackable)
    fallback = ShadowModelFactory(
        profile=micro_profile, architecture="mlp", seed=5, training_mode="stacked"
    ).build_pool(tiny_dataset, num_clean=1, num_backdoor=1)
    _assert_pools_match(sequential, fallback, tolerance=0.0)


def test_stacked_batchnorm_buffers_unstack_per_model(rng):
    layers = [nn.BatchNorm2d(3) for _ in range(2)]
    stacked = stack_modules(layers)
    x = rng.normal(size=(2, 4, 3, 5, 5))
    stacked.train()
    stacked(x)
    unstack_modules(stacked, layers)
    for index, layer in enumerate(layers):
        reference = nn.BatchNorm2d(3)
        reference.train()
        reference(x[index])
        np.testing.assert_array_equal(
            layer.get_buffer("running_mean"), reference.get_buffer("running_mean")
        )
        np.testing.assert_array_equal(
            layer.get_buffer("running_var"), reference.get_buffer("running_var")
        )
    # the engine only trains: an eval-mode stacked BatchNorm has no
    # running-statistics path and refuses rather than normalise by the batch
    stacked.eval()
    with pytest.raises(RuntimeError, match="training mode"):
        stacked(x)


@pytest.mark.parametrize("architecture", ["mlp", "resnet18"])
def test_stacked_pool_matches_sequential_in_float32_tier(
    micro_profile, tiny_dataset, architecture
):
    """float32 pools trade bit-identity for speed: the stacked and sequential
    twins may pick different conv engines, so they agree only to float32
    accumulation tolerance — but the clean/backdoor labels, attack targets and
    training trajectories must still line up."""
    profile = micro_profile.with_overrides(
        classifier=TrainingConfig(epochs=2, batch_size=16, learning_rate=1e-2)
    )
    sequential = ShadowModelFactory(
        profile=profile, architecture=architecture, seed=11,
        training_mode="sequential", precision="float32",
    ).build_pool(tiny_dataset, num_clean=2, num_backdoor=2)
    stacked = ShadowModelFactory(
        profile=profile, architecture=architecture, seed=11,
        training_mode="stacked", precision="float32",
    ).build_pool(tiny_dataset, num_clean=2, num_backdoor=2)
    for pool in (sequential, stacked):
        for shadow in pool:
            assert shadow.classifier.dtype == np.float32
    _assert_pools_match(sequential, stacked, tolerance=5e-2)


def test_float32_pool_matches_float64_pool_within_tolerance(
    micro_profile, tiny_dataset
):
    """The two precision tiers of the *same* factory configuration must stay
    interchangeable at the level the detector consumes them: near-identical
    weights, identical shadow labels."""
    profile = micro_profile.with_overrides(
        classifier=TrainingConfig(epochs=2, batch_size=16, learning_rate=1e-2)
    )
    pools = {}
    for precision in ("float64", "float32"):
        pools[precision] = ShadowModelFactory(
            profile=profile, architecture="resnet18", seed=11,
            training_mode="sequential", precision=precision,
        ).build_pool(tiny_dataset, num_clean=1, num_backdoor=1)
    assert pools["float64"][0].classifier.dtype == np.float64
    assert pools["float32"][0].classifier.dtype == np.float32
    _assert_pools_match(pools["float64"], pools["float32"], tolerance=5e-2)
