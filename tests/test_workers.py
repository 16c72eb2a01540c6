"""Tests for the worker-pool layer: ``map``/``submit`` parity across
backends, :class:`WorkerPool` lifecycle, the BLAS thread cap every pool holds
while it runs, and :class:`DetectorRef` hydration.

The process backend's whole contract is that it is *invisible* to results:
per-task seeds derive from stable task identities, detectors hydrate from the
store bit-identically, and the only observable difference is wall-clock time.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core import BpromDetector
from repro.models.registry import build_classifier
from repro.runtime import DetectorRegistry, WorkerPool, executor
from repro.runtime.registry import DetectorSpec
from repro.runtime.workers import _HYDRATED, DetectorRef, resolve_detector
from repro.utils.rng import derive_seed

BACKENDS = ("serial", "thread", "process")


def _seeded_draw(item):
    """Module-level so process pools can pickle it by qualified name; the
    per-task seed derives from the task identity, like every runtime stage."""
    index, experiment_seed = item
    rng = np.random.default_rng(derive_seed(experiment_seed, "parity-task", index))
    return float(rng.random())


# ---------------------------------------------------------------------------
# map / submit parity: serial / thread / process
# ---------------------------------------------------------------------------

def test_executor_map_results_identical_across_backends():
    items = [(index, 123) for index in range(6)]
    expected = [_seeded_draw(item) for item in items]
    for backend in BACKENDS:
        with WorkerPool(workers=2, backend=backend) as pool:
            assert pool.map(_seeded_draw, items) == expected, backend
            # map reuses the one executor and counts no submitted tasks
            assert pool.map(_seeded_draw, items) == expected, backend
            assert pool.stats()["tasks"] == 0


def test_pool_submit_results_identical_across_backends():
    items = [(index, 321) for index in range(6)]
    expected = [_seeded_draw(item) for item in items]
    for backend in BACKENDS:
        with WorkerPool(workers=2, backend=backend) as pool:
            futures = [pool.submit(_seeded_draw, item) for item in items]
            assert [future.result() for future in futures] == expected, backend


# ---------------------------------------------------------------------------
# WorkerPool lifecycle
# ---------------------------------------------------------------------------

def _explode(_item):
    raise ValueError("task failed")


def test_non_parallel_pool_runs_inline():
    with WorkerPool(workers=1, backend="thread") as pool:
        assert not pool.parallel and not pool.started
        future = pool.submit(_seeded_draw, (0, 7))
        assert future.done() and future.result() == _seeded_draw((0, 7))
        assert pool.started
        # a task exception lands on the future, as on a real pool
        failed = pool.submit(_explode, None)
        assert failed.done()
        with pytest.raises(ValueError, match="task failed"):
            failed.result()
        assert pool.stats()["tasks"] == 2


def test_parallel_pool_counts_tasks():
    with WorkerPool(workers=2, backend="thread") as pool:
        assert pool.parallel
        futures = [pool.submit(_seeded_draw, (index, 9)) for index in range(4)]
        assert [f.result() for f in futures] == [_seeded_draw((i, 9)) for i in range(4)]
        stats = pool.stats()
        assert stats == {"backend": "thread", "workers": 2, "started": True, "tasks": 4}


def test_process_pool_runs_module_level_tasks():
    with WorkerPool(workers=2, backend="process") as pool:
        futures = [pool.submit(_seeded_draw, (index, 11)) for index in range(3)]
        assert [f.result() for f in futures] == [_seeded_draw((i, 11)) for i in range(3)]


def test_pool_close_is_idempotent_and_final():
    pool = WorkerPool(workers=2, backend="thread")
    pool.submit(_seeded_draw, (0, 1)).result()
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(_seeded_draw, (0, 1))


def test_pool_rejects_bad_config():
    with pytest.raises(ValueError):
        WorkerPool(workers=0)
    with pytest.raises(ValueError):
        WorkerPool(backend="gpu")


# ---------------------------------------------------------------------------
# BLAS thread cap
# ---------------------------------------------------------------------------

_OPENBLAS = executor._find_openblas()
#: the OpenBLAS thread count a 2-worker pool runs with
CAP = executor.blas_threads_per_worker(2)


def _blas_threads(_item=None):
    """Module-level so process workers can run it: the OpenBLAS thread count
    where the task runs."""
    return _OPENBLAS[0]()


@pytest.fixture()
def openblas():
    """The loaded OpenBLAS's (getter, setter); its thread count is restored
    after the test."""
    if _OPENBLAS is None:
        pytest.skip("no OpenBLAS loaded")
    getter, setter = _OPENBLAS
    saved = getter()
    yield getter, setter
    setter(saved)


@pytest.fixture()
def blas_threads(openblas):
    """A known OpenBLAS thread count above the 2-worker cap, on any runner."""
    getter, setter = openblas
    setter(2 * CAP)
    return getter()


@pytest.fixture(scope="module")
def uploads(micro_profile, tiny_dataset, tiny_test_dataset):
    """A fitted micro-profile detector and one upload per architecture."""
    pairs = {}
    for index, architecture in enumerate(("mlp", "resnet18")):
        detector = BpromDetector(profile=micro_profile, architecture=architecture, seed=0)
        detector.fit(tiny_dataset, tiny_dataset, tiny_test_dataset)
        upload = build_classifier(
            architecture,
            tiny_dataset.num_classes,
            image_size=tiny_dataset.image_size,
            rng=700 + index,
            name=f"upload-{architecture}",
        )
        upload.fit(tiny_dataset, micro_profile.classifier, rng=800 + index)
        pairs[architecture] = (detector, upload)
    return pairs


def test_verdicts_do_not_depend_on_blas_threads(openblas, uploads):
    """What lets pools resize BLAS without breaking float64 bit-identity."""
    _, setter = openblas
    results = {}
    for threads in (1, 2):
        setter(threads)
        results[threads] = {
            architecture: detector.inspect(upload, seed_key=architecture)
            for architecture, (detector, upload) in uploads.items()
        }
    for architecture in uploads:
        one, two = results[1][architecture], results[2][architecture]
        assert one.backdoor_score == two.backdoor_score, architecture
        assert one.is_backdoored == two.is_backdoored, architecture
        assert one.query_count == two.query_count, architecture


def test_thread_pool_caps_blas_threads_until_close(blas_threads):
    pool = WorkerPool(workers=2, backend="thread")
    assert pool.submit(_blas_threads).result() == min(blas_threads, CAP)
    pool.close()
    assert _blas_threads() == blas_threads


def test_executor_map_restores_blas_threads_when_a_task_raises(blas_threads):
    with pytest.raises(ValueError, match="task failed"):
        with WorkerPool(2, "thread") as pool:
            pool.map(_explode, [0, 1])
    assert _blas_threads() == blas_threads


def test_process_pool_caps_its_workers_not_the_parent(blas_threads):
    with WorkerPool(workers=2, backend="process") as pool:
        assert pool.submit(_blas_threads).result() == min(blas_threads, CAP)
        assert _blas_threads() == blas_threads
    assert _blas_threads() == blas_threads


def test_overlapping_thread_pools_closed_out_of_order(blas_threads):
    first = WorkerPool(workers=2, backend="thread")
    second = WorkerPool(workers=2, backend="thread")
    first.submit(_blas_threads).result()
    second.submit(_blas_threads).result()
    first.close()
    assert _blas_threads() == min(blas_threads, CAP)  # second is still open
    second.close()
    assert _blas_threads() == blas_threads


@pytest.mark.parametrize("backend", BACKENDS)
def test_pools_run_without_openblas(monkeypatch, backend):
    monkeypatch.setattr(executor, "_find_openblas", lambda: None)
    monkeypatch.setattr(executor, "_BLAS_THREADS", executor._BlasThreads())
    before = _OPENBLAS[0]() if _OPENBLAS is not None else None
    items = [(index, 5) for index in range(4)]
    expected = [_seeded_draw(item) for item in items]
    with WorkerPool(workers=2, backend=backend) as pool:
        assert pool.map(_seeded_draw, items) == expected
        assert [pool.submit(_seeded_draw, item).result() for item in items] == expected
        if before is not None:  # a pool that found no OpenBLAS touches nothing
            assert pool.submit(_blas_threads).result() == before


def test_racing_thread_pools_leave_the_original_count(blas_threads):
    """More threads than cores churn 2-worker pools under a short switch
    interval: every task sees the cap, and the last close restores the
    original count however the pools interleave."""
    reads, errors = [], []
    deadline = time.monotonic() + 1.0

    def churn() -> None:
        try:
            for _ in range(500):
                if time.monotonic() > deadline:
                    return
                with WorkerPool(workers=2, backend="thread") as pool:
                    reads.append(pool.submit(_blas_threads).result())
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=churn) for _ in range(len(os.sched_getaffinity(0)) + 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert reads and set(reads) == {min(blas_threads, CAP)}
    assert _blas_threads() == blas_threads


# ---------------------------------------------------------------------------
# DetectorRef hydration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hydration_setup(micro_profile, tiny_dataset, tiny_test_dataset, tmp_path_factory):
    """A fitted detector in a store, plus the ref a process worker would get."""
    runtime = RuntimeConfig(cache_dir=str(tmp_path_factory.mktemp("workers-store")))
    registry = DetectorRegistry(runtime=runtime)
    spec = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=0)
    entry = registry.get_or_fit(spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    ref = DetectorRef(
        key_hash=entry.key_hash,
        key=entry.key,
        spec=spec,
        runtime=runtime.with_overrides(workers=1, backend="serial"),
    )
    return entry, ref


def test_resolve_detector_hydrates_once_and_scores_bit_identically(
    hydration_setup, trained_mlp
):
    entry, ref = hydration_setup
    _HYDRATED.clear()
    assert resolve_detector(entry.detector) is entry.detector  # passes through
    hydrated = resolve_detector(ref)
    assert hydrated is not entry.detector  # a fresh load, not the fitted object
    assert resolve_detector(ref) is hydrated  # per-process cache serves repeats
    reference = entry.detector.inspect(trained_mlp, seed_key="probe")
    warm = hydrated.inspect(trained_mlp, seed_key="probe")
    assert warm.backdoor_score == reference.backdoor_score  # exact, not approx
    assert warm.is_backdoored == reference.is_backdoored
    _HYDRATED.clear()


def test_resolve_detector_never_refits_on_miss(hydration_setup, tmp_path):
    _, ref = hydration_setup
    _HYDRATED.clear()
    pointed_at_empty_store = DetectorRef(
        key_hash=ref.key_hash,
        key=ref.key,
        spec=ref.spec,
        runtime=RuntimeConfig(cache_dir=str(tmp_path), workers=1, backend="serial"),
    )
    with pytest.raises(RuntimeError, match="refitting in a pool worker is forbidden"):
        resolve_detector(pointed_at_empty_store)
    assert not _HYDRATED  # a miss must not poison the cache
