"""Tests for the advisory lock and the detector registry.

The acceptance properties of the registry subsystem:

* a *second process* (modelled as a fresh registry instance over the same
  store) performs **zero training** on a warm store — the entry comes from
  the store and no fit is counted;
* two concurrent cold-store ``get_or_fit`` callers fit **exactly once**
  (cross-process single-flight via advisory lock files);
* loaded detectors stay in memory, so repeat requests in one process never
  touch the store;
* registry keys keep their hashes, so stores warmed by earlier versions stay
  warm.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.detector import BpromDetector
from repro.datasets.base import ImageDataset
from repro.runtime import AdvisoryLock, LockTimeout
from repro.runtime.registry import DetectorRegistry, DetectorSpec, registry_key
from repro.runtime.store import key_hash


# ---------------------------------------------------------------------------
# advisory lock
# ---------------------------------------------------------------------------

def test_lock_is_exclusive_and_releases(tmp_path):
    path = tmp_path / "locks" / "demo.lock"
    with AdvisoryLock(path) as lock:
        assert lock.held
        assert path.exists()
        with pytest.raises(LockTimeout):
            AdvisoryLock(path, wait_seconds=0.05).acquire()
    assert not path.exists()
    # free again: a second acquire succeeds immediately
    with AdvisoryLock(path, wait_seconds=0.05):
        pass


def test_lock_waits_for_release(tmp_path):
    path = tmp_path / "demo.lock"
    first = AdvisoryLock(path).acquire()
    acquired = []

    def waiter():
        with AdvisoryLock(path, wait_seconds=5.0, poll_seconds=0.01):
            acquired.append(time.monotonic())

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.1)
    assert not acquired  # still blocked on the holder
    first.release()
    thread.join(timeout=5.0)
    assert acquired


def test_stale_lock_takeover(tmp_path):
    path = tmp_path / "demo.lock"
    AdvisoryLock(path).acquire()  # never released: simulated crashed holder
    hour_ago = time.time() - 3600
    os.utime(path, (hour_ago, hour_ago))
    with AdvisoryLock(path, stale_seconds=60.0, wait_seconds=0.5) as lock:
        assert lock.held  # took the abandoned lock over
    assert not path.exists()


def test_release_after_takeover_spares_the_new_holder(tmp_path):
    path = tmp_path / "demo.lock"
    crashed = AdvisoryLock(path).acquire()
    hour_ago = time.time() - 3600
    os.utime(path, (hour_ago, hour_ago))
    successor = AdvisoryLock(path, stale_seconds=60.0, wait_seconds=0.5).acquire()
    crashed.release()  # late release by the evicted holder
    assert path.exists()  # the successor's lock file survives
    holder = successor.holder()
    assert holder is not None and holder["token"] == successor._token
    successor.release()
    assert not path.exists()


def test_lock_refresh_pushes_staleness_out(tmp_path):
    path = tmp_path / "demo.lock"
    with AdvisoryLock(path, stale_seconds=3600.0) as lock:
        hour_ago = time.time() - 3600
        os.utime(path, (hour_ago, hour_ago))
        lock.refresh()
        with pytest.raises(LockTimeout):  # no longer stale, so no takeover
            AdvisoryLock(path, stale_seconds=3600.0, wait_seconds=0.05).acquire()


# ---------------------------------------------------------------------------
# registry: addressing
# ---------------------------------------------------------------------------

def test_registry_key_tracks_every_knob(micro_profile, tiny_dataset, tiny_test_dataset):
    spec = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=3)
    base = key_hash(registry_key(spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset))
    for changed in (
        spec.with_overrides(seed=4),
        spec.with_overrides(architecture="resnet18"),
        spec.with_overrides(threshold=0.7),
        spec.with_overrides(shadow_attack="blend"),
        spec.with_overrides(precision="float32"),
    ):
        other = key_hash(registry_key(changed, tiny_dataset, tiny_test_dataset, tiny_test_dataset))
        assert other != base, changed
    # different datasets change the address too
    assert key_hash(registry_key(spec, tiny_test_dataset, tiny_test_dataset, tiny_test_dataset)) != base


def _ramp_dataset(count: int, offset: int) -> ImageDataset:
    """A dataset whose fingerprint is the same on every platform."""
    size = count * 3 * 12 * 12
    images = (np.arange(size, dtype=np.float64) + offset) / (size + offset)
    return ImageDataset(images.reshape(count, 3, 12, 12), np.arange(count) % 4, num_classes=4)


@pytest.mark.parametrize(
    "overrides,expected",
    [
        ({"architecture": "mlp", "seed": 0}, "0b137f932436d4032664"),
        ({"architecture": "resnet18", "seed": 3, "precision": "float32"}, "1884bffe57ee39bd4134"),
    ],
)
def test_registry_key_hashes_stay_stable(micro_profile, overrides, expected):
    """The hashes the registry minted when specs still carried the MNTD
    fields: a store warmed then must still be warm."""
    spec = DetectorSpec(defense="bprom", profile=micro_profile, **overrides)
    key = registry_key(spec, _ramp_dataset(8, 0), _ramp_dataset(12, 1), _ramp_dataset(8, 2))
    assert key_hash(key) == expected


def test_spec_rejects_unknown_defense_and_architecture(micro_profile):
    with pytest.raises(ValueError):
        DetectorSpec(defense="strip", profile=micro_profile)
    with pytest.raises(ValueError):
        DetectorSpec(defense="mntd", profile=micro_profile)
    with pytest.raises(ValueError):
        DetectorSpec(profile=micro_profile, architecture="vgg")
    with pytest.raises(ValueError, match="precision"):
        DetectorSpec(profile=micro_profile, precision="float16")


def test_precision_tiers_never_share_a_cache_address(
    micro_profile, tiny_dataset, tiny_test_dataset
):
    """float32 fits get their own store keys; float64 keys are unchanged.

    The back-compat half matters as much as the separation half: the default
    tier must produce byte-identical key payloads to the pre-precision-split
    registry, so stores warmed before the split keep serving hits.
    """
    spec = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=3)
    reference = registry_key(spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    assert "precision" not in reference  # pre-split float64 hashes stay stable
    fast = registry_key(
        spec.with_overrides(precision="float32"),
        tiny_dataset,
        tiny_test_dataset,
        tiny_test_dataset,
    )
    assert fast["precision"] == "float32"
    assert key_hash(fast) != key_hash(reference)
    # spec normalisation: case-folded on construction, like the env knob
    assert DetectorSpec(profile=micro_profile, precision="FLOAT32").precision == "float32"


def test_bprom_spec_requires_target_datasets(micro_profile, tiny_dataset, tmp_path):
    registry = DetectorRegistry(runtime=RuntimeConfig(cache_dir=str(tmp_path)))
    with pytest.raises(ValueError, match="target_train"):
        registry.get_or_fit(DetectorSpec(profile=micro_profile, architecture="mlp"), tiny_dataset)


# ---------------------------------------------------------------------------
# registry: cross-process reuse (the ROADMAP acceptance item)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def shared_store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("registry-store")


@pytest.fixture(scope="module")
def specs(micro_profile):
    seed0 = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=0)
    return {"seed0": seed0, "seed1": seed0.with_overrides(seed=1)}


def test_second_process_reuses_both_detector_kinds(
    specs, shared_store_dir, tiny_dataset, tiny_test_dataset, trained_mlp
):
    runtime = RuntimeConfig(cache_dir=str(shared_store_dir))
    first = DetectorRegistry(runtime=runtime)
    fitted = first.get_or_fit(specs["seed0"], tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    assert fitted.source == "fit"
    assert first.fits == 1

    # a fresh registry over the same store models a second process
    second = DetectorRegistry(runtime=runtime)
    warm = second.get_or_fit(specs["seed0"], tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    # zero training: loaded from the store, no fits counted
    assert warm.source == "store"
    assert second.fits == 0 and second.store_hits == 1

    # and the reloaded detector serves bit-identical scores
    assert isinstance(warm.detector, BpromDetector)
    original = fitted.detector.inspect(trained_mlp, seed_key="probe")
    reloaded = warm.detector.inspect(trained_mlp, seed_key="probe")
    assert reloaded.backdoor_score == original.backdoor_score

    # third call in the same process: served from the in-memory map
    again = second.get_or_fit(specs["seed0"], tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    assert again.source == "memory"
    assert second.hits == 1


def test_concurrent_cold_callers_fit_exactly_once(
    micro_profile, tiny_dataset, tiny_test_dataset, trained_mlp, tmp_path
):
    runtime = RuntimeConfig(cache_dir=str(tmp_path))
    spec = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp")
    registries = [DetectorRegistry(runtime=runtime) for _ in range(2)]
    entries = [None, None]
    errors = []
    barrier = threading.Barrier(2)

    def caller(index):
        try:
            barrier.wait()
            entries[index] = registries[index].get_or_fit(
                spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset
            )
        except BaseException as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    # single-flight: exactly one registry trained, the other loaded the
    # winner's artifact after waiting on the advisory lock
    assert sum(registry.fits for registry in registries) == 1
    assert sum(registry.store_hits for registry in registries) == 1
    assert all(entry is not None for entry in entries)
    # both callers hold the same fitted detector: the loser's copy came from
    # the winner's artifact, so their scores agree exactly
    scores = [
        entry.detector.inspect(trained_mlp, seed_key="probe").backdoor_score
        for entry in entries
    ]
    assert scores[0] == scores[1]


# ---------------------------------------------------------------------------
# registry: in-memory residency
# ---------------------------------------------------------------------------

def test_registry_keeps_every_loaded_detector(
    specs, shared_store_dir, tiny_dataset, tiny_test_dataset
):
    registry = DetectorRegistry(runtime=RuntimeConfig(cache_dir=str(shared_store_dir)))
    for spec in specs.values():
        registry.get_or_fit(spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    assert registry.stats()["loaded"] == 2


def test_registry_without_store_fits_in_process(micro_profile, tiny_dataset, tiny_test_dataset):
    registry = DetectorRegistry(runtime=RuntimeConfig())  # no cache_dir: store disabled
    spec = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp")
    datasets = (tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    entry = registry.get_or_fit(spec, *datasets)
    assert entry.source == "fit"
    # repeat requests still deduplicate through the in-memory map
    assert registry.get_or_fit(spec, *datasets).source == "memory"
    assert registry.fits == 1
