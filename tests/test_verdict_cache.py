"""Tests for the fleet-scale verdict cache.

Acceptance properties from the issue: cached verdicts are bit-identical to
the cold path (scores exact after the JSON round trip, labels and metadata
equal); a warm resubmission spends zero black-box queries; and two threads
*and* two processes racing on one model fingerprint perform exactly one
inspection.  Plus the policy boundaries: detector-digest bumps and
precision switches miss, and verdict documents written with a ``created``
stamp (before verdicts stopped carrying one) still load.
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import threading
import time

import pytest

from repro.config import RuntimeConfig
from repro.models.registry import build_classifier
from repro.runtime import AuditGateway
from repro.runtime.registry import DetectorSpec
from repro.runtime.workers import AuditVerdict
from repro.runtime.store import ArtifactStore
from repro.runtime.verdict_cache import (
    VERDICT_KIND,
    VerdictCache,
    model_fingerprint,
    verdict_cache_key,
)


def make_verdict(name="vendor-0", score=0.625, accuracy=0.75, queries=48, calls=3):
    return AuditVerdict(
        name=name,
        backdoor_score=score,
        is_backdoored=score >= 0.5,
        prompted_accuracy=accuracy,
        query_count=queries,
        query_calls=calls,
    )


def memory_cache():
    """A cache with no persistence tier (disabled store)."""
    return VerdictCache(store=ArtifactStore(None))


def disk_cache(tmp_path, **kwargs):
    return VerdictCache(store=ArtifactStore(tmp_path / "store"), **kwargs)


def write_through(cache, key, verdict):
    """Inspect-and-store one verdict the way a pool task does."""
    return cache.compute_through_store(key, verdict.name, lambda: verdict)


def publish(cache, key, verdict):
    """Publish one verdict to the memory tier the way a leader does."""
    claim, token = cache.begin(key, verdict.name)
    assert claim == "leader"
    cache.complete(token, verdict)


# ---------------------------------------------------------------------------
# fingerprints and keys
# ---------------------------------------------------------------------------

def test_model_fingerprint_ignores_display_name(tiny_dataset):
    build = lambda name: build_classifier(
        "mlp", tiny_dataset.num_classes, image_size=tiny_dataset.image_size,
        rng=3, name=name,
    )
    assert model_fingerprint(build("vendor-a")) == model_fingerprint(build("vendor-b"))


def test_model_fingerprint_tracks_weights(tiny_dataset, micro_profile):
    model = build_classifier(
        "mlp", tiny_dataset.num_classes, image_size=tiny_dataset.image_size, rng=3
    )
    before = model_fingerprint(model)
    model.fit(tiny_dataset, micro_profile.classifier, rng=4)
    assert model_fingerprint(model) != before
    other_init = build_classifier(
        "mlp", tiny_dataset.num_classes, image_size=tiny_dataset.image_size, rng=5
    )
    assert model_fingerprint(other_init) != before


def test_cache_key_carries_all_three_coordinates():
    key = verdict_cache_key("fp", "digest", "float32")
    assert key == {"fingerprint": "fp", "detector_digest": "digest", "precision": "float32"}


# ---------------------------------------------------------------------------
# tiers: round trip, promotion, invalidation
# ---------------------------------------------------------------------------

def test_store_round_trip_is_bit_identical(tmp_path):
    key = verdict_cache_key("fp", "digest", "float64")
    minted = make_verdict(score=1.0 / 3.0, accuracy=2.0 / 7.0)
    write_through(disk_cache(tmp_path), key, minted)

    fresh = disk_cache(tmp_path)  # cold memory tier: must come off disk
    served = fresh.lookup(key, "resubmitted")
    assert served is not None
    assert served.cache == "store"
    assert served.name == "resubmitted"
    assert served.backdoor_score == minted.backdoor_score  # exact, not approx
    assert served.prompted_accuracy == minted.prompted_accuracy
    assert served.is_backdoored == minted.is_backdoored
    assert served.query_count == minted.query_count
    assert served.query_calls == minted.query_calls
    # the store hit promoted the entry: the next lookup is a memory hit
    assert fresh.lookup(key, "again").cache == "memory"
    assert fresh.stats()["store_hits"] == 1 and fresh.stats()["memory_hits"] == 1


def test_nan_accuracy_survives_the_round_trip(tmp_path):
    """``prompted_accuracy`` is nan when an inspection had no evaluation set,
    and in the verdicts that MNTD tenants once wrote to stores; JSON must not
    choke on it."""
    key = verdict_cache_key("fp", "digest", "float64")
    write_through(disk_cache(tmp_path), key, make_verdict(accuracy=float("nan")))
    served = disk_cache(tmp_path).lookup(key, "resub")
    assert math.isnan(served.prompted_accuracy)


def test_served_verdicts_do_not_inherit_provenance(tmp_path):
    """Tiers store the cold form: a memory hit promoted from the store tier
    must serve as ``memory``, not replay the first serving's ``store``."""
    cache = memory_cache()
    key = verdict_cache_key("fp", "digest", "float64")
    publish(cache, key, make_verdict())
    first = cache.lookup(key, "one")
    publish(cache, verdict_cache_key("fp2", "digest", "float64"), first)
    again = cache.lookup(verdict_cache_key("fp2", "digest", "float64"), "two")
    assert first.cache == "memory" and again.cache == "memory"


def test_verdicts_written_with_a_created_stamp_still_load(tmp_path):
    """Verdict documents used to carry a ``created`` wall-clock stamp; the
    reader ignores it, so a store written in that layout stays warm."""
    store = ArtifactStore(tmp_path / "store")
    key = verdict_cache_key("fp", "digest", "float64")
    minted = make_verdict(score=1.0 / 3.0, accuracy=2.0 / 7.0)
    with store.open_write(VERDICT_KIND, key) as artifact:
        artifact.save_json(
            "verdict",
            {
                "format_version": 1,
                "created": 1700000000.0,
                "key": dict(key),
                "payload": {
                    "name": minted.name,
                    "backdoor_score": minted.backdoor_score,
                    "is_backdoored": minted.is_backdoored,
                    "prompted_accuracy": minted.prompted_accuracy,
                    "query_count": minted.query_count,
                    "query_calls": minted.query_calls,
                },
            },
        )
    served = VerdictCache(store=store).lookup(key, "resubmitted")
    assert served is not None
    assert served.cache == "store"
    assert served.backdoor_score == minted.backdoor_score  # exact, not approx
    assert served.prompted_accuracy == minted.prompted_accuracy
    assert served.query_count == minted.query_count


def test_detector_refit_bumps_the_digest_and_misses(tmp_path):
    cache = disk_cache(tmp_path)
    before = verdict_cache_key("fp", "digest-before-refit", "float64")
    write_through(cache, before, make_verdict())
    after = verdict_cache_key("fp", "digest-after-refit", "float64")
    assert cache.lookup(after, "resub") is None  # same model, refit detector
    assert cache.lookup(before, "resub") is not None


def test_precision_tiers_never_share_entries(tmp_path):
    cache = disk_cache(tmp_path)
    write_through(cache, verdict_cache_key("fp", "d", "float64"), make_verdict())
    assert cache.lookup(verdict_cache_key("fp", "d", "float32"), "resub") is None


def test_disabled_cache_is_inert(tmp_path):
    cache = disk_cache(tmp_path, enabled=False)
    key = verdict_cache_key("fp", "d", "float64")
    computed = cache.compute_through_store(key, "resub", lambda: make_verdict(score=0.125))
    assert computed.backdoor_score == 0.125
    assert cache.lookup(key, "resub") is None
    assert not cache.store.contains(VERDICT_KIND, key)


# ---------------------------------------------------------------------------
# single flight: two threads, two processes -> exactly one inspection
# ---------------------------------------------------------------------------

def test_two_threads_same_fingerprint_one_inspection(tmp_path):
    cache = disk_cache(tmp_path)
    key = verdict_cache_key("fp", "digest", "float64")
    inspecting = threading.Event()
    release = threading.Event()
    computed = []

    def compute():
        computed.append(threading.get_ident())
        inspecting.set()
        assert release.wait(timeout=30.0)
        return make_verdict()

    results = {}

    def submit(name):
        # the gateway's composition: claim, then lead through the store tier
        # or follow the leader's shared future
        claim, value = cache.begin(key, name)
        if claim == "follower":
            results[name] = cache.served(value.result(timeout=30.0), name, "dedup")
            return
        assert claim == "leader"
        verdict = cache.compute_through_store(key, name, compute)
        cache.complete(value, verdict)
        results[name] = verdict

    leader = threading.Thread(target=submit, args=("leader",))
    leader.start()
    assert inspecting.wait(timeout=30.0)  # the leader is mid-inspection
    follower = threading.Thread(target=submit, args=("follower",))
    follower.start()
    while cache.stats()["dedup_hits"] == 0 and follower.is_alive():
        time.sleep(0.005)  # the follower has joined the flight
    release.set()
    leader.join(timeout=30.0)
    follower.join(timeout=30.0)

    assert len(computed) == 1  # exactly one inspection
    stats = cache.stats()
    assert stats["inspections"] == 1
    assert stats["dedup_hits"] == 1
    assert stats["misses"] == 1
    assert results["leader"].backdoor_score == results["follower"].backdoor_score
    assert results["follower"].cache == "dedup"
    assert results["follower"].name == "follower"


def test_leader_failure_propagates_and_releases_the_claim(tmp_path):
    cache = disk_cache(tmp_path)
    key = verdict_cache_key("fp", "digest", "float64")

    def explode():
        raise RuntimeError("vendor endpoint down")

    claim, token = cache.begin(key, "boom")
    assert claim == "leader"
    claim, shared = cache.begin(key, "follower")
    assert claim == "follower"
    with pytest.raises(RuntimeError, match="endpoint down") as raised:
        cache.compute_through_store(key, "boom", explode)
    cache.fail(token, raised.value)
    with pytest.raises(RuntimeError, match="endpoint down"):
        shared.result(timeout=1.0)  # the follower sees the leader's failure
    # the claim was released and the store kept nothing: a retry leads a
    # fresh flight and inspects
    claim, token = cache.begin(key, "retry")
    assert claim == "leader"
    verdict = cache.compute_through_store(key, "retry", make_verdict)
    cache.complete(token, verdict)
    assert verdict.backdoor_score == make_verdict().backdoor_score
    assert verdict.cache == "cold"
    assert cache.stats()["inspections"] == 1


def _process_worker(root, start, side_file, scores):
    start.wait(timeout=30.0)
    cache = VerdictCache(store=ArtifactStore(root))
    key = verdict_cache_key("fp", "digest", "float64")

    def compute():
        with open(side_file, "a") as handle:
            handle.write("inspected\n")
        time.sleep(0.2)  # widen the race window for the other process
        return make_verdict()

    verdict = cache.compute_through_store(key, "proc", compute)
    scores.put(float(verdict.backdoor_score))


def test_two_processes_same_fingerprint_one_inspection(tmp_path):
    context = multiprocessing.get_context("fork")
    start = context.Event()
    scores = context.Queue()
    side_file = tmp_path / "inspections.log"
    side_file.touch()
    root = tmp_path / "store"
    workers = [
        context.Process(target=_process_worker, args=(root, start, side_file, scores))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    start.set()  # release both at once so they race on the advisory lock
    results = [scores.get(timeout=60.0) for _ in workers]
    for worker in workers:
        worker.join(timeout=60.0)
        assert worker.exitcode == 0

    assert side_file.read_text().count("inspected") == 1  # exactly one
    assert results[0] == results[1] == make_verdict().backdoor_score


# ---------------------------------------------------------------------------
# service and gateway integration: warm resubmission economics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cached_gateway(micro_profile, tiny_dataset, tiny_test_dataset, tmp_path_factory):
    runtime = RuntimeConfig(
        cache_dir=str(tmp_path_factory.mktemp("cached-gateway")),
        verdict_cache=True,
    )
    gateway = AuditGateway(runtime=runtime, max_in_flight=2)
    gateway.register_tenant(
        "tabular-mlp",
        DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=0),
        tiny_dataset,
        tiny_test_dataset,
        tiny_test_dataset,
    )
    yield gateway
    gateway.close()


@pytest.fixture(scope="module")
def suspect_model(micro_profile, tiny_dataset):
    model = build_classifier(
        "mlp", tiny_dataset.num_classes, image_size=tiny_dataset.image_size,
        rng=700, name="suspect",
    )
    model.fit(tiny_dataset, micro_profile.classifier, rng=701)
    return model


def test_gateway_warm_resubmission_is_free_and_bit_identical(
    cached_gateway, suspect_model
):
    [cold] = list(cached_gateway.stream([("suspect", suspect_model)]))
    assert cold.cache == "cold"
    tenant_stats = cached_gateway.stats()["tenants"]["tabular-mlp"]
    queries_after_cold = tenant_stats["query_count"]
    assert queries_after_cold > 0

    [warm] = list(cached_gateway.stream([("suspect-resubmitted", suspect_model)]))
    assert warm.cache in ("memory", "store")
    assert warm.name == "suspect-resubmitted"
    # bit-identical to the cold path, not merely close
    assert warm.backdoor_score == cold.backdoor_score
    assert warm.is_backdoored == cold.is_backdoored
    assert warm.prompted_accuracy == cold.prompted_accuracy
    assert warm.query_count == cold.query_count  # describes the original audit

    stats = cached_gateway.stats()
    tenant_stats = stats["tenants"]["tabular-mlp"]
    # zero queries spent on the warm serving: that is the amortisation
    assert tenant_stats["query_count"] == queries_after_cold
    assert tenant_stats["cache_hits"] == 1
    served = tenant_stats["accepted"] + tenant_stats["rejected"]
    assert served == 2
    assert tenant_stats["amortized_queries_per_verdict"] == pytest.approx(
        queries_after_cold / served
    )
    assert stats["amortized_queries_per_verdict"] == pytest.approx(
        queries_after_cold / served
    )
    cache_stats = stats["verdict_cache"]
    assert cache_stats["inspections"] == 1
    assert cache_stats["memory_hits"] + cache_stats["store_hits"] >= 1
    assert cache_stats["hit_rate"] > 0.0


def test_gateway_submit_serves_warm_hits_without_a_budget_slot(
    cached_gateway, suspect_model
):
    job = cached_gateway.submit("suspect-direct", suspect_model)
    assert job.future.done()  # completed synchronously off a cache tier
    [verdict] = list(cached_gateway.as_completed())
    assert verdict.cache in ("memory", "store")
    assert cached_gateway.in_flight == 0


def test_gateway_hits_and_followers_never_reach_the_pool(
    cached_gateway, micro_profile, tiny_dataset, tiny_test_dataset
):
    """The same weights under two keys, then resubmitted: one inspection and
    exactly one pool task; the other verdicts are the leader's, served as a
    dedup follower or from a cache tier without touching the pool."""
    upload = build_classifier(
        "mlp", tiny_dataset.num_classes, image_size=tiny_dataset.image_size,
        rng=800, name="upload",
    )
    upload.fit(tiny_dataset, micro_profile.classifier, rng=801)
    runtime = cached_gateway.runtime.with_overrides(workers=2)
    # the cached gateway's registry serves the fitted detector from memory;
    # a fresh gateway starts its pool and cache counters at zero
    with AuditGateway(registry=cached_gateway.registry, runtime=runtime) as gateway:
        gateway.register_tenant(
            "tabular-mlp",
            DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=0),
            tiny_dataset,
            tiny_test_dataset,
            tiny_test_dataset,
        )
        for key in ("upload-a", "upload-b"):
            gateway.submit(key, copy.deepcopy(upload))
        verdicts = list(gateway.as_completed())
        gateway.submit("upload-a-again", copy.deepcopy(upload))
        verdicts += list(gateway.as_completed())
        stats = gateway.stats()
    assert stats["verdict_cache"]["inspections"] == 1
    assert stats["worker_pool"]["tasks"] == 1
    [leader] = [verdict for verdict in verdicts if verdict.cache == "cold"]
    others = [verdict for verdict in verdicts if verdict is not leader]
    assert sorted(verdict.name for verdict in verdicts) == [
        "upload-a", "upload-a-again", "upload-b"
    ]
    for verdict in others:
        assert verdict.cache in ("dedup", "memory", "store")
        assert verdict.backdoor_score == leader.backdoor_score
        assert verdict.is_backdoored == leader.is_backdoored
        assert verdict.prompted_accuracy == leader.prompted_accuracy
        assert verdict.query_count == leader.query_count
        assert verdict.query_calls == leader.query_calls
