"""Tests for the pipeline runtime: artifact store, worker pool, detector
persistence, the fit's stage seams and warm-cache training skips."""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
import zipfile

import numpy as np
import pytest

from repro.config import RuntimeConfig, TrainingConfig
from repro.core.detector import BpromDetector
from repro.core.shadow import ShadowModelFactory
from repro.eval.harness import ExperimentContext
from repro.models.classifier import ImageClassifier
from repro.models.registry import build_classifier
from repro.nn.serialization import save_state_dict
from repro.obs import get_tracer
from repro.runtime import AdvisoryLock, ArtifactStore, WorkerPool, executor
from repro.runtime import store as store_module
from repro.runtime.store import MISS


# ---------------------------------------------------------------------------
# ArtifactStore
# ---------------------------------------------------------------------------

def test_store_round_trip_and_contains(tmp_path):
    store = ArtifactStore(tmp_path)
    key = {"profile": "micro", "seed": 0, "index": 3}
    assert not store.contains("demo", key)
    with store.open_write("demo", key) as artifact:
        artifact.save_arrays("blob", {"x": np.arange(5.0)})
        artifact.save_json("meta", {"hello": "world"})
    assert store.contains("demo", key)
    artifact = store.open_read("demo", key)
    np.testing.assert_array_equal(artifact.load_arrays("blob")["x"], np.arange(5.0))
    assert artifact.load_json("meta") == {"hello": "world"}


def test_store_key_sensitivity(tmp_path):
    store = ArtifactStore(tmp_path)
    with store.open_write("demo", {"seed": 0}) as artifact:
        artifact.save_json("meta", {})
    assert store.contains("demo", {"seed": 0})
    assert not store.contains("demo", {"seed": 1})


def test_store_failed_write_leaves_no_artifact(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(RuntimeError):
        with store.open_write("demo", {"seed": 0}) as artifact:
            artifact.save_json("partial", {})
            raise RuntimeError("boom")
    assert not store.contains("demo", {"seed": 0})
    assert not list((tmp_path / "demo").iterdir())


def test_disabled_store_always_builds(tmp_path):
    store = ArtifactStore(None)
    calls = []
    value = store.fetch(
        "demo",
        {"k": 1},
        build=lambda: calls.append(1) or 42,
        save=lambda artifact, value: artifact.save_json("value", value),
        load=lambda artifact: artifact.load_json("value"),
    )
    assert value == 42 and calls == [1]
    assert not store.contains("demo", {"k": 1})


def test_store_recovers_from_corrupt_artifact(tmp_path):
    store = ArtifactStore(tmp_path)
    key = {"k": 1}
    with store.open_write("demo", key) as artifact:
        artifact.save_arrays("value", {"x": np.ones(3)})
    # simulate a blob deleted from under an intact manifest
    (store.directory_for("demo", key) / "value.npz").unlink()
    builds = []
    with pytest.warns(UserWarning, match="corrupt"):
        value = store.fetch(
            "demo",
            key,
            build=lambda: builds.append(1) or {"x": np.zeros(3)},
            save=lambda artifact, value: artifact.save_arrays("value", value),
            load=lambda artifact: artifact.load_arrays("value"),
        )
    np.testing.assert_array_equal(value["x"], np.zeros(3))
    assert builds == [1]
    # the rebuilt artifact replaced the corrupt one and loads cleanly now
    reloaded = store.fetch(
        "demo",
        key,
        build=lambda: None,
        save=lambda artifact, value: None,
        load=lambda artifact: artifact.load_arrays("value"),
    )
    np.testing.assert_array_equal(reloaded["x"], np.zeros(3))


def test_store_caches_none_valued_artifact(tmp_path):
    """A legitimately-``None`` artefact is a hit, not an eternal rebuild."""
    store = ArtifactStore(tmp_path)
    builds = []

    def fetch():
        return store.fetch(
            "maybe",
            {"k": 1},
            build=lambda: builds.append(1) and None,
            save=lambda artifact, value: artifact.save_json("value", value),
            load=lambda artifact: artifact.load_json("value"),
        )

    assert fetch() is None
    assert fetch() is None
    assert builds == [1], "None-valued artifact must not rebuild on a warm store"
    # the cold fetch missed twice: before the key's lock and again under it
    assert store.hits == 1 and store.misses == 2


def test_store_fetch_memoises_on_disk(tmp_path):
    store = ArtifactStore(tmp_path)
    builds = []

    def fetch():
        return store.fetch(
            "numbers",
            {"k": 1},
            build=lambda: builds.append(1) or {"x": np.ones(3)},
            save=lambda artifact, value: artifact.save_arrays("value", value),
            load=lambda artifact: artifact.load_arrays("value"),
        )

    first = fetch()
    second = fetch()
    assert len(builds) == 1
    np.testing.assert_array_equal(first["x"], second["x"])
    # the cold fetch missed twice: before the key's lock and again under it
    assert store.hits == 1 and store.misses == 2


# ---------------------------------------------------------------------------
# ArtifactStore.fetch: the one load-or-build protocol
# ---------------------------------------------------------------------------

def _json_fetch(store, key, build, kind="demo"):
    return store.fetch(
        kind,
        key,
        build,
        save=lambda artifact, value: artifact.save_json("value", value),
        load=lambda artifact: artifact.load_json("value"),
    )


def _fetch_in_a_process(root, start, builds_file, values):
    start.wait(timeout=30.0)

    def build():
        with open(builds_file, "a") as handle:
            handle.write("built\n")
        time.sleep(0.3)  # the other process arrives while this one builds
        return os.getpid()

    values.put(_json_fetch(ArtifactStore(root), {"k": 1}, build))


def test_fetch_builds_once_across_processes(tmp_path):
    context = multiprocessing.get_context("fork")
    start = context.Event()
    values = context.Queue()
    builds_file = tmp_path / "builds.log"
    builds_file.touch()
    workers = [
        context.Process(
            target=_fetch_in_a_process, args=(tmp_path / "store", start, builds_file, values)
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    start.set()  # release both at once so they race on the key's lock
    results = [values.get(timeout=60.0) for _ in workers]
    for worker in workers:
        worker.join(timeout=60.0)
        assert worker.exitcode == 0
    assert builds_file.read_text().count("built") == 1
    # the builder's pid: the other process loaded the winner's artifact
    assert results[0] == results[1]


def test_failed_build_leaves_no_lock_or_artifact(tmp_path):
    store = ArtifactStore(tmp_path)
    key = {"k": 1}

    def explode():
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError, match="build failed"):
        _json_fetch(store, key, explode)
    assert not store.lock_path("demo", key).exists()
    assert not store.contains("demo", key)
    assert _json_fetch(store, key, lambda: 7) == 7  # the next fetch builds
    assert _json_fetch(store, key, explode) == 7


def test_fetch_waiter_never_evicts_a_live_builder(tmp_path, monkeypatch):
    """A build that outlasts the stale period keeps its lock: the process's
    refresher re-stamps it, so the waiter waits and loads instead of
    evicting the holder and building again."""
    releases = []

    class ShortStaleLock(AdvisoryLock):
        def __init__(self, path):
            super().__init__(path, stale_seconds=0.4, poll_seconds=0.01)

        def release(self):
            holder = self.holder() if self.held else None
            releases.append(holder is not None and holder["token"] == self._token)
            super().release()

    monkeypatch.setattr(store_module, "AdvisoryLock", ShortStaleLock)
    store = ArtifactStore(tmp_path)
    building = threading.Event()
    builds = []

    def build():
        builds.append(1)
        building.set()
        time.sleep(1.2)  # three stale periods
        return len(builds)

    values = []
    holder = threading.Thread(target=lambda: values.append(_json_fetch(store, {"k": 1}, build)))
    holder.start()
    assert building.wait(timeout=30.0)
    values.append(_json_fetch(store, {"k": 1}, build))  # polls while the holder builds
    holder.join(timeout=30.0)
    assert builds == [1]
    assert values == [1, 1]
    # both releases (the builder's, then the waiter's after its store hit)
    # found their own token in the lock file
    assert releases == [True, True]


def test_cold_fetches_share_one_refresher_thread(tmp_path):
    store = ArtifactStore(tmp_path)
    before = threading.active_count()
    for index in range(50):
        assert _json_fetch(store, {"k": index}, lambda: index) == index
    assert threading.active_count() <= before + 1


def test_release_racing_the_refresher_never_raises(tmp_path, monkeypatch):
    """More threads than cores take and release locks with a 1 ms refresh
    period under a short switch interval: the refresher never raises, every
    lock file is released, and the refresher still stamps afterwards."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", lambda args: errors.append(args.exc_value))

    def churn(index):
        for _ in range(50):
            with AdvisoryLock(tmp_path / f"racy-{index}.lock", stale_seconds=0.004):
                time.sleep(0.0005)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=churn, args=(index,))
            for index in range(len(os.sched_getaffinity(0)) + 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not list(tmp_path.iterdir())
    with AdvisoryLock(tmp_path / "alive.lock", stale_seconds=0.2) as lock:
        os.utime(lock.path, (0, 0))
        deadline = time.monotonic() + 10.0
        while lock.path.stat().st_mtime == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert lock.path.stat().st_mtime > 0


# ---------------------------------------------------------------------------
# WorkerPool.map
# ---------------------------------------------------------------------------

def _square(x: int) -> int:
    return x * x


def test_executor_orders_match_serial():
    items = list(range(20))
    with WorkerPool(1) as serial, WorkerPool(4, "thread") as threaded:
        assert serial.map(_square, items) == threaded.map(_square, items)
        assert threaded.map(_square, items) == [x * x for x in items]


def test_executor_rejects_bad_config():
    with pytest.raises(ValueError):
        WorkerPool(0)
    for backend in ("fiber", "serial"):  # one worker is the inline pool
        with pytest.raises(ValueError):
            WorkerPool(2, backend)
        with pytest.raises(ValueError):
            RuntimeConfig(workers=2, backend=backend)


def test_pool_from_config_never_opens_more_workers_than_tasks():
    runtime = RuntimeConfig(workers=4, backend="process")
    inline = WorkerPool.from_config(None, tasks=8)
    assert inline.workers == 1 and not inline.parallel
    assert WorkerPool.from_config(runtime, tasks=8).workers == 4
    assert WorkerPool.from_config(runtime, tasks=2).workers == 2
    assert WorkerPool.from_config(runtime, tasks=0).workers == 1
    assert WorkerPool.from_config(runtime, tasks=2).backend == "process"


def test_runtime_config_properties():
    assert not RuntimeConfig().parallel
    assert RuntimeConfig(workers=4).parallel
    assert not RuntimeConfig(workers=1, backend="process").parallel


# ---------------------------------------------------------------------------
# parallel shadow pools (same seeds, same models as sequential)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("architecture, precision", [("mlp", "float64"), ("vit", "float32")])
def test_parallel_shadow_pool_matches_sequential(
    micro_profile, tiny_dataset, architecture, precision
):
    """A pool's bytes do not depend on the worker count, in either tier: the
    artifact-store key of a pool does not name the worker count either."""
    factory = ShadowModelFactory(
        profile=micro_profile,
        architecture=architecture,
        shadow_attack="badnets",
        seed=11,
        precision=precision,
    )
    sequential = factory.build_pool(tiny_dataset, num_clean=2, num_backdoor=2)
    with WorkerPool(3, "thread") as pool:
        parallel = factory.build_pool(tiny_dataset, num_clean=2, num_backdoor=2, executor=pool)
    assert [s.is_backdoored for s in sequential] == [s.is_backdoored for s in parallel]
    assert [s.target_class for s in sequential] == [s.target_class for s in parallel]
    for left, right in zip(sequential, parallel):
        assert left.classifier.dtype == np.dtype(precision)
        state_left, state_right = left.classifier.state_dict(), right.classifier.state_dict()
        assert list(state_left) == list(state_right)
        for key, value in state_left.items():
            assert value.dtype == state_right[key].dtype, key
            assert value.tobytes() == state_right[key].tobytes(), key


def test_seed_normalisation_no_longer_collapses_generators():
    a = ShadowModelFactory(seed=np.random.default_rng(5))
    b = ShadowModelFactory(seed=np.random.default_rng(6))
    assert a.seed != 0 and b.seed != 0
    assert a.seed != b.seed
    c = BpromDetector(seed=np.random.default_rng(5))
    assert c.seed == ShadowModelFactory(seed=np.random.default_rng(5)).seed


# ---------------------------------------------------------------------------
# detector persistence + serve-many API
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fitted_detector(micro_profile, tiny_dataset, tiny_test_dataset):
    detector = BpromDetector(profile=micro_profile, architecture="mlp", seed=0)
    detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset)
    return detector


@pytest.fixture(scope="module")
def suspicious_fleet(micro_profile, tiny_dataset):
    fleet = []
    for index in range(3):
        model = build_classifier(
            "mlp",
            tiny_dataset.num_classes,
            image_size=tiny_dataset.image_size,
            rng=200 + index,
            name=f"fleet-{index}",
        )
        model.fit(tiny_dataset, micro_profile.classifier, rng=300 + index)
        fleet.append(model)
    return fleet


def test_parallel_fit_opens_one_pool_for_both_stages(
    micro_profile, tiny_dataset, tiny_test_dataset, tmp_path, monkeypatch
):
    """Shadow training and prompting share one pool: a cold 2-worker fit
    opens exactly one executor."""
    opened = []
    original = executor.open_pool

    def counting_open_pool(workers, backend):
        opened.append((workers, backend))
        return original(workers, backend)

    monkeypatch.setattr(executor, "open_pool", counting_open_pool)
    runtime = RuntimeConfig(workers=2, backend="thread", cache_dir=str(tmp_path))
    detector = BpromDetector(profile=micro_profile, architecture="mlp", seed=0, runtime=runtime)
    detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset)
    assert opened == [(2, "thread")]
    assert detector._store.hits == 0  # both stages really ran on the pool


def _fit_spans(micro_profile, tiny_dataset, tiny_test_dataset, cache_dir):
    tracer = get_tracer()
    tracer.drain()
    tracer.enable()
    try:
        detector = BpromDetector(
            profile=micro_profile,
            architecture="mlp",
            seed=0,
            runtime=RuntimeConfig(cache_dir=str(cache_dir)),
        )
        detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset)
    finally:
        tracer.disable()
    return {span.name: span.attrs.get("cached") for span in tracer.drain()}


def test_cold_and_warm_fits_record_every_stage_span(
    micro_profile, tiny_dataset, tiny_test_dataset, tmp_path
):
    """The ``fit.<stage>`` spans the benchmark's set-up breakdown reads, on
    both a cold and a warm store; only the warm one loads."""
    cold = _fit_spans(micro_profile, tiny_dataset, tiny_test_dataset, tmp_path)
    warm = _fit_spans(micro_profile, tiny_dataset, tiny_test_dataset, tmp_path)
    assert cold == {"fit.shadow": False, "fit.prompt": False, "fit.meta": False}
    assert warm == {"fit.shadow": True, "fit.prompt": True, "fit.meta": False}


def test_detector_save_load_bit_identical_scores(
    fitted_detector, suspicious_fleet, tmp_path
):
    path = fitted_detector.save(tmp_path / "detector")
    restored = BpromDetector.load(path)
    for model in suspicious_fleet:
        original = fitted_detector.inspect(model)
        loaded = restored.inspect(model)
        assert loaded.backdoor_score == original.backdoor_score
        assert loaded.is_backdoored == original.is_backdoored
        assert loaded.prompted_accuracy == original.prompted_accuracy


def test_detector_artifact_records_and_restores_precision(fitted_detector, tmp_path):
    """The saved metadata pins the precision tier and wins over the caller's.

    A float32-fitted detector must never silently serve under a float64
    runtime (or vice versa) — ``load`` adopts the tier recorded at save time.
    Artifacts written before the precision split carry no entry and are
    float64 by definition.
    """
    import json

    path = fitted_detector.save(tmp_path / "detector")
    meta_path = path / "detector.json"
    meta = json.loads(meta_path.read_text())
    assert meta["precision"] == "float64"

    # pre-split artifact: no "precision" entry at all -> float64
    del meta["precision"]
    meta_path.write_text(json.dumps(meta))
    assert BpromDetector.load(path).runtime.precision == "float64"

    # float32 artifact overrides whatever runtime the caller supplies
    meta["precision"] = "float32"
    meta_path.write_text(json.dumps(meta))
    assert BpromDetector.load(path).runtime.precision == "float32"
    restored = BpromDetector.load(path, runtime=RuntimeConfig(workers=2))
    assert restored.runtime.precision == "float32"
    assert restored.runtime.workers == 2  # the rest of the runtime is kept


def _compress_types(blob):
    with zipfile.ZipFile(blob) as archive:
        return {info.compress_type for info in archive.infolist()}


def test_npz_blobs_are_written_stored_not_deflated(
    micro_profile, tiny_dataset, tiny_test_dataset, tmp_path
):
    """Every member of every ``.npz`` a shadow-pool fetch, a detector save
    and ``save_state_dict`` write is stored: float64 weights barely
    compress, and zlib was most of a cold stand-up's save time."""
    store = tmp_path / "store"
    detector = BpromDetector(
        profile=micro_profile,
        architecture="mlp",
        seed=0,
        runtime=RuntimeConfig(cache_dir=str(store)),
    )
    detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset)
    pool_blobs = sorted((store / "shadow-pool").rglob("*.npz"))
    detector_blobs = sorted(detector.save(tmp_path / "detector").glob("*.npz"))
    state = save_state_dict(detector.shadow_models[0].classifier.model, tmp_path / "state.npz")
    assert pool_blobs and detector_blobs
    for blob in [*pool_blobs, *detector_blobs, state]:
        assert _compress_types(blob) == {zipfile.ZIP_STORED}, blob.name


def test_deflated_detector_artifact_still_loads(fitted_detector, suspicious_fleet, tmp_path):
    """A store written with ``np.savez_compressed``, as before arrays were
    stored uncompressed, stays warm: the artifact loads as a hit and scores
    the same bytes."""
    store = ArtifactStore(tmp_path / "store")
    key = {"detector": "deflated"}
    with store.open_write("detector", key) as artifact:
        fitted_detector.save(artifact.directory)
    blobs = sorted(store.directory_for("detector", key).glob("*.npz"))
    assert blobs
    for blob in blobs:
        with np.load(blob) as archive:
            arrays = {name: archive[name] for name in archive.files}
        np.savez_compressed(blob, **arrays)
        assert _compress_types(blob) == {zipfile.ZIP_DEFLATED}

    restored = store.try_load("detector", key, lambda artifact: BpromDetector.load(artifact.directory))
    assert restored is not MISS
    assert (store.hits, store.misses) == (1, 0)
    for model in suspicious_fleet:
        assert repr(restored.inspect(model).backdoor_score) == repr(
            fitted_detector.inspect(model).backdoor_score
        )


def test_save_requires_fitted_detector(micro_profile, tmp_path):
    detector = BpromDetector(profile=micro_profile, architecture="mlp", seed=0)
    with pytest.raises(RuntimeError):
        detector.save(tmp_path / "nope")


def test_inspect_many_matches_sequential_inspect(fitted_detector, suspicious_fleet):
    sequential = [fitted_detector.inspect(model) for model in suspicious_fleet]
    with WorkerPool(3, "thread") as pool:
        batched = fitted_detector.inspect_many(suspicious_fleet, executor=pool)
    assert [r.backdoor_score for r in batched] == [r.backdoor_score for r in sequential]
    scores = fitted_detector.score_models(suspicious_fleet)
    np.testing.assert_array_equal(scores, [r.backdoor_score for r in sequential])


# ---------------------------------------------------------------------------
# warm artifact store: repeated context calls skip all training
# ---------------------------------------------------------------------------

def test_warm_store_skips_all_training(micro_profile, tmp_path, monkeypatch):
    runtime = RuntimeConfig(cache_dir=str(tmp_path / "artifacts"))
    profile = micro_profile.with_overrides(name="micro-warm")

    warm = ExperimentContext(profile, seed=0, runtime=runtime)
    detector = warm.detector(
        "cifar10", "stl10", "mlp", num_clean_shadows=1, num_backdoor_shadows=1
    )
    probe = warm.suspicious_model("cifar10", None, 0, "mlp")
    baseline_score = detector.inspect(probe.classifier).backdoor_score

    fit_calls = []
    original_fit = ImageClassifier.fit

    def counting_fit(self, *args, **kwargs):
        fit_calls.append(self.name)
        return original_fit(self, *args, **kwargs)

    monkeypatch.setattr(ImageClassifier, "fit", counting_fit)
    import repro.prompting.trainer as trainer_module

    original_prompt = trainer_module.train_prompt_whitebox
    prompt_calls = []

    def counting_prompt(*args, **kwargs):
        prompt_calls.append(1)
        return original_prompt(*args, **kwargs)

    monkeypatch.setattr(trainer_module, "train_prompt_whitebox", counting_prompt)

    # a brand-new context (fresh process stand-in) with the same store
    cold = ExperimentContext(profile, seed=0, runtime=runtime)
    restored = cold.detector(
        "cifar10", "stl10", "mlp", num_clean_shadows=1, num_backdoor_shadows=1
    )
    assert fit_calls == [], "warm store must skip classifier training entirely"
    assert prompt_calls == [], "warm store must skip prompt training entirely"
    assert cold.store.hits >= 1
    # the loaded detector reattaches its shadow pool and prompts, so
    # experiments reading them (e.g. figure 5) behave as on a cold cache
    assert len(restored.shadow_models) == len(detector.shadow_models) == 2
    assert len(restored.prompted_shadows) == len(detector.prompted_shadows) == 2

    # the restored detector serves bit-identical scores
    probe_again = cold.suspicious_model("cifar10", None, 0, "mlp")
    assert fit_calls == [], "warm store must also cover the suspicious zoo"
    assert restored.inspect(probe_again.classifier).backdoor_score == baseline_score


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
            profile=profile, architecture="resnet18", seed=11, precision=precision,
        ).build_pool(tiny_dataset, num_clean=1, num_backdoor=1)
    assert pools["float64"][0].classifier.dtype == np.float64
    assert pools["float32"][0].classifier.dtype == np.float32
    for a, b in zip(pools["float64"], pools["float32"]):
        assert (a.is_backdoored, a.target_class, a.attack_name) == (
            b.is_backdoored, b.target_class, b.attack_name,
        )
        assert a.clean_accuracy == pytest.approx(b.clean_accuracy, abs=5e-2)
        assert a.classifier.history.losses == pytest.approx(
            b.classifier.history.losses, abs=5e-2
        )
        state_a, state_b = a.classifier.state_dict(), b.classifier.state_dict()
        assert set(state_a) == set(state_b)
        for key in state_a:
            np.testing.assert_allclose(
                state_a[key], state_b[key], rtol=0.0, atol=5e-2, err_msg=key
            )


def test_context_shadow_pool_ignores_the_precision_variable(
    micro_profile, tmp_path, monkeypatch
):
    """On the float64 tier a context's shadow-pool key carries no precision,
    so the pool must be float64 whatever ``REPRO_PRECISION`` says: a pool
    written with the variable set reads back equal to a cold float64 pool."""
    profile = micro_profile.with_overrides(name="micro-precision")
    runtime = RuntimeConfig(cache_dir=str(tmp_path))
    pool_args = ("cifar10", "mlp", "badnets", None, 1, 1)

    monkeypatch.setenv("REPRO_PRECISION", "float32")
    ExperimentContext(profile, seed=0, runtime=runtime).shadow_pool(*pool_args)
    monkeypatch.delenv("REPRO_PRECISION")
    warm = ExperimentContext(profile, seed=0, runtime=runtime)
    stored = warm.shadow_pool(*pool_args)
    assert warm.store.hits == 1
    cold = ExperimentContext(profile, seed=0).shadow_pool(*pool_args)
    for left, right in zip(stored, cold):
        cold_state = right.classifier.state_dict()
        for name, value in left.classifier.state_dict().items():
            assert value.dtype == np.float64, name
            np.testing.assert_array_equal(value, cold_state[name])


def test_context_shadow_pool_trains_in_the_runtime_precision(micro_profile):
    """A float32 context trains its shadow pool in float32."""
    profile = micro_profile.with_overrides(name="micro-fp32-pool")
    context = ExperimentContext(
        profile, seed=0, runtime=RuntimeConfig(precision="float32")
    )
    pool = context.shadow_pool("cifar10", "mlp", "badnets", None, 1, 1)
    for shadow in pool:
        for name, value in shadow.classifier.state_dict().items():
            assert value.dtype == np.float32, name


def test_context_detector_key_separates_precision_tiers(micro_profile, tmp_path):
    """A float32 context sharing a store with a float64 context fits its own
    float32 detector instead of loading the float64 one."""
    profile = micro_profile.with_overrides(name="micro-tiers")
    detector_args = ("cifar10", "stl10", "mlp", "badnets", None, 1, 1)
    float64 = ExperimentContext(profile, seed=0, runtime=RuntimeConfig(cache_dir=str(tmp_path)))
    assert float64.detector(*detector_args).runtime.precision == "float64"
    float32 = ExperimentContext(
        profile, seed=0, runtime=RuntimeConfig(cache_dir=str(tmp_path), precision="float32")
    )
    assert float32.detector(*detector_args).runtime.precision == "float32"
    assert float32.store.hits == 0


def test_prompted_suspicious_cache_keys_on_model_content(
    micro_profile, tiny_dataset, tiny_test_dataset
):
    """Two differently trained models sharing a name must not share prompts."""
    detector = BpromDetector(profile=micro_profile, architecture="mlp", seed=0)
    detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset)
    context = ExperimentContext(micro_profile.with_overrides(name="micro-fp"), seed=0)

    entries = []
    for rng in (400, 401):
        model = build_classifier(
            "mlp",
            tiny_dataset.num_classes,
            image_size=tiny_dataset.image_size,
            rng=rng,
            name="mlp/cifar10/blend/0",  # same name, as in a poison-rate sweep
        )
        model.fit(tiny_dataset, micro_profile.classifier, rng=rng + 1)
        from repro.eval.harness import SuspiciousModel

        entries.append(SuspiciousModel(model, True))
    first = context.prompted_suspicious(detector, entries[0], "detkey")
    second = context.prompted_suspicious(detector, entries[1], "detkey")
    assert first.source_classifier is entries[0].classifier
    assert second.source_classifier is entries[1].classifier
    assert len(context._prompted_suspicious) == 2


def test_context_without_cache_dir_keeps_memory_semantics(micro_profile):
    context = ExperimentContext(micro_profile.with_overrides(name="micro-mem"), seed=0)
    assert not context.store.enabled
    first = context.datasets("cifar10")
    assert context.datasets("cifar10")[0] is first[0]
