"""Tests for the multi-tenant audit gateway.

Acceptance property: gateway verdicts are bit-identical (scores within 1e-9,
identical labels) to inspecting each model with its tenant's detector by hand
under the same key, for a mixed catalogue spanning two tenants and two
architecture families — plus routing rules, the shared in-flight budget and
the ``stats`` snapshot.
"""

from __future__ import annotations

import copy
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.models.registry import build_classifier
from repro.runtime import AuditGateway, DetectorRegistry, TenantProvisioner
from repro.runtime.registry import DetectorSpec


@pytest.fixture(scope="module")
def tenant_specs(micro_profile):
    """Two BPROM tenants spanning two architecture families."""
    return {
        "vision-cnn": DetectorSpec(
            defense="bprom", profile=micro_profile, architecture="resnet18", seed=0
        ),
        "tabular-mlp": DetectorSpec(
            defense="bprom", profile=micro_profile, architecture="mlp", seed=0
        ),
    }


@pytest.fixture(scope="module")
def vendor_models(micro_profile, tiny_dataset):
    """A mixed vendor catalogue: two models per architecture family."""
    catalogue = {}
    for family_arch, prefix in (("resnet18", "cnn"), ("mlp", "mlp")):
        for index in range(2):
            name = f"vendor-{prefix}-{index}"
            model = build_classifier(
                family_arch,
                tiny_dataset.num_classes,
                image_size=tiny_dataset.image_size,
                rng=500 + index,
                name=name,
            )
            model.fit(tiny_dataset, micro_profile.classifier, rng=600 + index)
            catalogue[name] = model
    return catalogue


@pytest.fixture(scope="module")
def warm_gateway(tenant_specs, micro_profile, tiny_dataset, tiny_test_dataset, tmp_path_factory):
    """A gateway with both tenants registered over a shared store."""
    runtime = RuntimeConfig(cache_dir=str(tmp_path_factory.mktemp("gateway-store")))
    gateway = AuditGateway(runtime=runtime, max_in_flight=3)
    gateway.register_tenant(
        "vision-cnn", tenant_specs["vision-cnn"], tiny_dataset, tiny_test_dataset, tiny_test_dataset
    )
    gateway.register_tenant(
        "tabular-mlp", tenant_specs["tabular-mlp"], tiny_dataset, tiny_test_dataset, tiny_test_dataset
    )
    yield gateway
    gateway.close()


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def test_routes_by_architecture_family(warm_gateway, vendor_models):
    assert warm_gateway.route({"architecture": "resnet18"}).tenant_id == "vision-cnn"
    assert warm_gateway.route({"architecture": "mobilenetv2"}).tenant_id == "vision-cnn"
    assert warm_gateway.route({"architecture": "mlp"}).tenant_id == "tabular-mlp"
    assert warm_gateway.route({"family": "cnn"}).tenant_id == "vision-cnn"


def test_routes_by_defense_and_explicit_tenant(warm_gateway):
    route = {"defense": "bprom", "architecture": "mlp"}
    assert warm_gateway.route(route).tenant_id == "tabular-mlp"
    with pytest.raises(KeyError):  # the gateway serves BPROM tenants only
        warm_gateway.route({"defense": "mntd"})
    assert warm_gateway.route({"tenant": "tabular-mlp"}).tenant_id == "tabular-mlp"
    with pytest.raises(KeyError):
        warm_gateway.route({"tenant": "nobody"})


def test_unroutable_and_ambiguous_submissions_are_rejected(warm_gateway):
    with pytest.raises(KeyError):  # no transformer tenant registered
        warm_gateway.route({"architecture": "vit"})
    with pytest.raises(ValueError, match="ambiguous"):  # two bprom tenants match
        warm_gateway.route({})


def test_route_requires_registered_tenants(micro_profile):
    gateway = AuditGateway(runtime=RuntimeConfig())
    with pytest.raises(KeyError, match="no tenants"):
        gateway.route({"architecture": "mlp"})


# ---------------------------------------------------------------------------
# verdict equivalence (the acceptance criterion)
# ---------------------------------------------------------------------------

def test_gateway_verdicts_match_per_tenant_inspection(warm_gateway, vendor_models):
    """Mixed two-family catalogue: the merged stream must agree with by-hand
    ``inspect(model, seed_key=key)`` on each tenant's detector to <= 1e-9,
    identical labels."""
    submissions = [(name, model) for name, model in vendor_models.items()]
    verdicts = {verdict.name: verdict for verdict in warm_gateway.stream(submissions)}
    assert set(verdicts) == set(vendor_models)

    tenants = warm_gateway.tenants
    for tenant_id, prefix in (("vision-cnn", "vendor-cnn"), ("tabular-mlp", "vendor-mlp")):
        detector = tenants[tenant_id].entry.detector
        for name, model in vendor_models.items():
            if not name.startswith(prefix):
                continue
            reference = detector.inspect(model, seed_key=name)
            merged = verdicts[name]
            assert merged.tenant == tenant_id
            assert abs(merged.backdoor_score - reference.backdoor_score) <= 1e-9
            assert merged.is_backdoored == reference.is_backdoored
            assert merged.verdict == ("reject" if reference.is_backdoored else "accept")
            assert abs(merged.prompted_accuracy - reference.prompted_accuracy) <= 1e-9
            assert merged.query_count == reference.query_count
            assert merged.query_calls == reference.query_calls


def test_gateway_matches_parallel_audit_too(
    tenant_specs, vendor_models, tiny_dataset, tiny_test_dataset, tmp_path
):
    """Same equivalence under a parallel runtime and interleaved submission."""
    runtime = RuntimeConfig(workers=2, cache_dir=str(tmp_path))
    with AuditGateway(runtime=runtime, max_in_flight=2) as gateway:
        gateway.register_tenant(
            "vision-cnn", tenant_specs["vision-cnn"], tiny_dataset, tiny_test_dataset, tiny_test_dataset
        )
        gateway.register_tenant(
            "tabular-mlp", tenant_specs["tabular-mlp"], tiny_dataset, tiny_test_dataset, tiny_test_dataset
        )
        # interleave families so routing alternates tenants
        names = sorted(vendor_models, key=lambda name: name[::-1])
        verdicts = {
            verdict.name: verdict
            for verdict in gateway.stream((name, vendor_models[name]) for name in names)
        }
        tenants = gateway.tenants
        for tenant_id, prefix in (("vision-cnn", "vendor-cnn"), ("tabular-mlp", "vendor-mlp")):
            detector = tenants[tenant_id].entry.detector
            for name, model in vendor_models.items():
                if not name.startswith(prefix):
                    continue
                reference = detector.inspect(model, seed_key=name)
                assert abs(verdicts[name].backdoor_score - reference.backdoor_score) <= 1e-9
                assert verdicts[name].is_backdoored == reference.is_backdoored


# ---------------------------------------------------------------------------
# submission surface and accounting
# ---------------------------------------------------------------------------

def test_submit_and_as_completed_merge_tenant_streams(warm_gateway, vendor_models):
    jobs = [
        warm_gateway.submit(f"resub-{name}", model)  # routed via model.architecture
        for name, model in vendor_models.items()
    ]
    assert all(job.key.startswith("resub-") for job in jobs)
    harvested = {verdict.name: verdict.tenant for verdict in warm_gateway.as_completed()}
    assert set(harvested) == {f"resub-{name}" for name in vendor_models}
    assert harvested["resub-vendor-cnn-0"] == "vision-cnn"
    assert harvested["resub-vendor-mlp-0"] == "tabular-mlp"
    # drained: a fresh as_completed ends immediately
    assert list(warm_gateway.as_completed()) == []
    assert warm_gateway.in_flight == 0


def test_serial_stream_degrades_to_ordered_loop(warm_gateway, vendor_models):
    """On the inline one-worker pool a stream yields in submission order,
    across tenants."""
    submissions = [
        (f"ordered-{name}", vendor_models[name])
        for name in ("vendor-mlp-0", "vendor-cnn-0", "vendor-mlp-1")
    ]
    names = [verdict.name for verdict in warm_gateway.stream(submissions)]
    assert names == [key for key, _ in submissions]


def test_empty_stream(warm_gateway):
    assert list(warm_gateway.stream([])) == []
    assert list(warm_gateway.as_completed()) == []


def test_duplicate_named_models_get_independent_seeds(
    warm_gateway, micro_profile, tiny_dataset
):
    """Two submissions sharing a model ``.name`` must not share prompting seeds."""
    duplicates = []
    for rng in (700, 710):
        model = build_classifier(
            "mlp",
            tiny_dataset.num_classes,
            image_size=tiny_dataset.image_size,
            rng=rng,
            name="vendor-model",  # identical names, distinct weights
        )
        model.fit(tiny_dataset, micro_profile.classifier, rng=rng + 1)
        duplicates.append(model)
    detector = warm_gateway.tenants["tabular-mlp"].entry.detector

    # the same physical model audited under two keys gets two different
    # prompting seeds (name-based seeding would collapse them)
    prompt_a = detector.prompt_suspicious(duplicates[0], seed_key="entry-a")
    prompt_b = detector.prompt_suspicious(duplicates[0], seed_key="entry-b")
    assert not np.array_equal(prompt_a.prompt.theta, prompt_b.prompt.theta)
    # ... and the derivation stays deterministic per key
    prompt_a_again = detector.prompt_suspicious(duplicates[0], seed_key="entry-a")
    np.testing.assert_array_equal(prompt_a.prompt.theta, prompt_a_again.prompt.theta)

    # the gateway threads each submission key through to the seed, so each
    # verdict equals a standalone inspect under its key
    submissions = [("entry-a", duplicates[0]), ("entry-b", duplicates[1])]
    expected = {
        key: detector.inspect(model, seed_key=key).backdoor_score
        for key, model in submissions
    }
    streamed = warm_gateway.stream(submissions)
    assert {verdict.name: verdict.backdoor_score for verdict in streamed} == expected


def test_stats_snapshot_reports_tenants_registry_and_store(warm_gateway, vendor_models):
    stats = warm_gateway.stats()
    assert set(stats["tenants"]) == {"vision-cnn", "tabular-mlp"}
    cnn = stats["tenants"]["vision-cnn"]
    assert cnn["family"] == "cnn" and cnn["defense"] == "bprom"
    assert stats["tenants"]["tabular-mlp"]["family"] == "mlp"
    # the streams above audited two models per tenant (plus resubmits)
    for tenant in stats["tenants"].values():
        assert tenant["accepted"] + tenant["rejected"] >= 2
        assert tenant["query_count"] > 0 and tenant["query_calls"] > 0
    # every tenant reports its precision tier so fleet dashboards can tell
    # a float32 tenant from the float64 reference tier at a glance
    assert all(t["precision"] == "float64" for t in stats["tenants"].values())
    assert stats["registry"]["fits"] == 2  # one fit per tenant, cold store
    assert stats["registry"]["loaded"] == 2
    assert isinstance(stats["store"], dict) and stats["store"]
    assert stats["in_flight"] == 0
    assert stats["max_in_flight"] == 3


def test_shared_budget_caps_concurrent_work(tenant_specs, tiny_dataset, tiny_test_dataset, tmp_path):
    runtime = RuntimeConfig(cache_dir=str(tmp_path))
    with AuditGateway(runtime=runtime, max_in_flight=1) as gateway:
        assert gateway.max_in_flight == 1
    with pytest.raises(ValueError):
        AuditGateway(runtime=runtime, max_in_flight=0)


def test_max_in_flight_defaults_to_twice_the_workers():
    with AuditGateway(runtime=RuntimeConfig(workers=4)) as gateway:
        assert gateway.max_in_flight == 8


class _PeakQuery:
    """Query functions that sleep and record the peak number of concurrent
    calls; an audit's own calls are sequential, so a peak above one means
    that many audits were running at once."""

    def __init__(self) -> None:
        self.active = 0
        self.peak = 0
        self.lock = threading.Lock()

    def wrap(self, model):
        def query(images):
            with self.lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.002)
            with self.lock:
                self.active -= 1
            return model.predict_proba(images)

        return query


@pytest.mark.parametrize("verdict_cache", [False, True])
@pytest.mark.parametrize("mode", ["submit", "stream"])
def test_budget_caps_peak_concurrency(
    mode, verdict_cache, warm_gateway, tenant_specs, tiny_dataset, tiny_test_dataset
):
    """Four workers but a budget of two: at most two cold audits ever run at
    once, and every verdict still comes back."""
    seed = 900 + 10 * (2 * verdict_cache + (mode == "stream"))
    models = {
        f"peak-{seed + index}": build_classifier(
            "mlp", tiny_dataset.num_classes, image_size=tiny_dataset.image_size,
            rng=seed + index,
        )
        for index in range(6)
    }
    probe = _PeakQuery()
    queries = {key: probe.wrap(model) for key, model in models.items()}
    runtime = warm_gateway.runtime.with_overrides(workers=4, verdict_cache=verdict_cache)
    # the warm gateway's registry serves the fitted detector from memory
    with AuditGateway(
        registry=warm_gateway.registry, runtime=runtime, max_in_flight=2
    ) as gateway:
        gateway.register_tenant(
            "tabular-mlp", tenant_specs["tabular-mlp"],
            tiny_dataset, tiny_test_dataset, tiny_test_dataset,
        )
        if mode == "submit":
            for key, model in models.items():
                gateway.submit(key, model, query_function=queries[key])
            verdicts = list(gateway.as_completed())
        else:
            verdicts = list(gateway.stream(models.items(), query_functions=queries))
        assert gateway.stats()["worker_pool"]["tasks"] == len(models)
    assert sorted(verdict.name for verdict in verdicts) == sorted(models)
    assert all(verdict.cache == "cold" for verdict in verdicts)
    assert 1 <= probe.peak <= 2, f"in-flight exceeded the budget: {probe.peak}"


def test_duplicate_tenant_registration_is_rejected(
    tenant_specs, tiny_dataset, tiny_test_dataset, tmp_path
):
    gateway = AuditGateway(runtime=RuntimeConfig(cache_dir=str(tmp_path)))
    datasets = (tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    gateway.register_tenant("tabular-mlp", tenant_specs["tabular-mlp"], *datasets)
    with pytest.raises(ValueError, match="already registered"):
        gateway.register_tenant("tabular-mlp", tenant_specs["tabular-mlp"], *datasets)
    gateway.close()


def test_gateway_reuses_registry_across_instances(
    tenant_specs, tiny_dataset, tiny_test_dataset, tmp_path
):
    """A second gateway process over the same store stands its tenants up
    with zero training (the registry acceptance property, gateway-shaped)."""
    runtime = RuntimeConfig(cache_dir=str(tmp_path))
    with AuditGateway(runtime=runtime) as first:
        first.register_tenant(
            "tabular-mlp", tenant_specs["tabular-mlp"], tiny_dataset, tiny_test_dataset, tiny_test_dataset
        )
    registry = DetectorRegistry(runtime=runtime)
    with AuditGateway(registry=registry) as second:
        mlp = second.register_tenant(
            "tabular-mlp", tenant_specs["tabular-mlp"], tiny_dataset, tiny_test_dataset, tiny_test_dataset
        )
        assert mlp.entry.source == "store"
        assert registry.fits == 0 and registry.store_hits == 1


def test_stream_delivers_harvested_verdicts_before_routing_errors(warm_gateway, vendor_models):
    """An unroutable backlog entry must not swallow verdicts already computed
    (and counted): the stream yields them first, then raises."""
    model = vendor_models["vendor-mlp-0"]
    submissions = [
        ("good", model),
        ("bad", model, {"architecture": "vit"}),  # no transformer tenant
    ]
    received = []
    with pytest.raises(KeyError):
        for verdict in warm_gateway.stream(submissions):
            received.append(verdict.name)
    assert received == ["good"]
    assert warm_gateway.in_flight == 0


def test_failed_job_is_reaped_and_other_verdicts_stay_harvestable(warm_gateway, vendor_models):
    """A failing audit (e.g. a vendor endpoint raising) must re-raise to the
    consumer without leaking its job handle in the tenant service; jobs that
    completed meanwhile remain harvestable via as_completed()."""
    model = vendor_models["vendor-mlp-0"]

    def exploding_query(images):
        raise RuntimeError("vendor endpoint down")

    warm_gateway.submit("fine", model)
    warm_gateway.submit("boom", model, query_function=exploding_query)
    harvested = []
    with pytest.raises(RuntimeError, match="endpoint down"):
        for verdict in warm_gateway.as_completed():
            harvested.append(verdict.name)
    # whatever was not yielded before the error is still recoverable ...
    remaining = [verdict.name for verdict in warm_gateway.as_completed()]
    assert sorted(harvested + remaining) == ["fine"]
    # ... and no job handle, the failed one included, is retained
    assert not warm_gateway._pending
    assert warm_gateway.in_flight == 0


def test_stream_consumes_submissions_lazily(warm_gateway, vendor_models):
    """stream() must not materialise the whole submissions iterable up front:
    a generator loading models on demand streams in bounded memory."""
    model = vendor_models["vendor-mlp-0"]
    pulled = []

    def entries():
        for index in range(5):
            pulled.append(index)
            yield (f"lazy-{index}", model)

    stream = warm_gateway.stream(entries())
    first = next(stream)
    assert first.name == "lazy-0"
    assert len(pulled) <= 2  # at most one entry pulled ahead of the budget
    assert len(list(stream)) == 4


# ---------------------------------------------------------------------------
# worker-pool backends (the tentpole: process pools, bit-identical verdicts)
# ---------------------------------------------------------------------------

def test_process_backend_verdicts_bit_identical_to_thread(
    tenant_specs, vendor_models, tiny_dataset, tiny_test_dataset, tmp_path
):
    """The same catalogue through a thread-pool and a process-pool gateway
    over one warm store must produce *exactly* equal verdicts — the process
    workers hydrate the same fitted artifact and the per-key seed derivation
    is shared, so any drift is a real bug, not noise."""
    submissions = [
        (name, model) for name, model in vendor_models.items()
        if name.startswith("vendor-mlp")
    ]
    results = {}
    for backend in ("thread", "process"):
        runtime = RuntimeConfig(workers=2, cache_dir=str(tmp_path), backend=backend)
        with AuditGateway(runtime=runtime) as gateway:
            gateway.register_tenant(
                "tabular-mlp", tenant_specs["tabular-mlp"],
                tiny_dataset, tiny_test_dataset, tiny_test_dataset,
            )
            assert gateway.worker_pool.backend == backend  # no silent fallback
            results[backend] = {
                verdict.name: verdict
                for verdict in gateway.stream(
                    (name, copy.deepcopy(model)) for name, model in submissions
                )
            }
            pool_stats = gateway.stats()["worker_pool"]
            assert pool_stats["backend"] == backend
            assert pool_stats["tasks"] == len(submissions)
    assert set(results["thread"]) == set(results["process"]) == {
        name for name, _ in submissions
    }
    for name, thread_verdict in results["thread"].items():
        process_verdict = results["process"][name]
        assert process_verdict.backdoor_score == thread_verdict.backdoor_score, name
        assert process_verdict.is_backdoored == thread_verdict.is_backdoored, name
        assert process_verdict.prompted_accuracy == thread_verdict.prompted_accuracy
        assert process_verdict.query_count == thread_verdict.query_count, name
        assert process_verdict.query_calls == thread_verdict.query_calls, name


def test_process_backend_without_store_falls_back_to_thread():
    """Process workers hydrate detectors from the shared store; with no store
    there is nothing to hydrate from, so the gateway must warn and degrade
    rather than refit inside workers."""
    with pytest.warns(UserWarning, match="falling back to the thread backend"):
        gateway = AuditGateway(runtime=RuntimeConfig(backend="process"))
    assert gateway.worker_pool.backend == "thread"
    gateway.close()


# ---------------------------------------------------------------------------
# tenant auto-provisioning
# ---------------------------------------------------------------------------

def _provisioner(micro_profile, tiny_dataset, tiny_test_dataset) -> TenantProvisioner:
    return TenantProvisioner(
        reserved_clean=tiny_dataset,
        target_train=tiny_test_dataset,
        target_test=tiny_test_dataset,
        template=DetectorSpec(
            defense="bprom", profile=micro_profile, architecture="mlp", seed=0
        ),
    )


def test_first_touch_submission_provisions_a_tenant(
    micro_profile, vendor_models, tiny_dataset, tiny_test_dataset, tmp_path
):
    runtime = RuntimeConfig(cache_dir=str(tmp_path))
    provisioner = _provisioner(micro_profile, tiny_dataset, tiny_test_dataset)
    model = vendor_models["vendor-mlp-0"]
    with AuditGateway(runtime=runtime, provisioner=provisioner) as gateway:
        [verdict] = list(gateway.stream([("first-touch", model)]))
        assert verdict.tenant == "auto-bprom-mlp"
        stats = gateway.stats()
        assert stats["tenants"]["auto-bprom-mlp"]["provisioned"] is True
        assert gateway.registry.fits == 1
        # the second submission routes to the standing tenant: no second fit
        [again] = list(gateway.stream([("second-touch", model)]))
        assert again.tenant == "auto-bprom-mlp"
        assert gateway.registry.fits == 1
        # an explicit pin on an unknown tenant is a caller error, not a
        # provisioning trigger
        with pytest.raises(KeyError, match="unknown tenant"):
            gateway.submit("pinned", model, metadata={"tenant": "nobody"})


def test_provisioning_race_in_threads_fits_exactly_once(
    micro_profile, vendor_models, tiny_dataset, tiny_test_dataset, tmp_path
):
    """Two racing gateways (one store) provisioning the same first-touch spec
    must perform exactly one fit between them — the registry's advisory lock
    single-flights the fit, and the loser warm-loads."""
    runtime = RuntimeConfig(cache_dir=str(tmp_path))
    model = vendor_models["vendor-mlp-0"]
    barrier = threading.Barrier(2)
    outcomes = []

    def provision_and_audit() -> None:
        registry = DetectorRegistry(runtime=runtime)
        provisioner = _provisioner(micro_profile, tiny_dataset, tiny_test_dataset)
        with AuditGateway(registry=registry, provisioner=provisioner) as gateway:
            barrier.wait()
            [verdict] = list(gateway.stream([("probe", copy.deepcopy(model))]))
        outcomes.append((registry.fits, verdict.backdoor_score))

    threads = [threading.Thread(target=provision_and_audit) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(fits for fits, _ in outcomes) == [0, 1], outcomes
    scores = {score for _, score in outcomes}
    assert len(scores) == 1  # both serve from the one fitted artifact


def _provision_in_subprocess(args):
    """Module-level so a fork-start ProcessPoolExecutor can run it: one whole
    gateway process provisioning the same spec as its sibling."""
    cache_dir, profile, reserved, target, model = args
    runtime = RuntimeConfig(cache_dir=cache_dir)
    registry = DetectorRegistry(runtime=runtime)
    provisioner = TenantProvisioner(
        reserved_clean=reserved,
        target_train=target,
        target_test=target,
        template=DetectorSpec(
            defense="bprom", profile=profile, architecture="mlp", seed=0
        ),
    )
    with AuditGateway(registry=registry, provisioner=provisioner) as gateway:
        [verdict] = list(gateway.stream([("probe", model)]))
    return registry.fits, verdict.backdoor_score


def test_provisioning_race_across_processes_fits_exactly_once(
    micro_profile, vendor_models, tiny_dataset, tiny_test_dataset, tmp_path
):
    """Same exactly-one-fit property with the racers as whole OS processes:
    nothing but the store and its advisory locks is shared."""
    args = (
        str(tmp_path),
        micro_profile,
        tiny_dataset,
        tiny_test_dataset,
        vendor_models["vendor-mlp-0"],
    )
    with ProcessPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(_provision_in_subprocess, [args, args]))
    assert sum(fits for fits, _ in outcomes) == 1, outcomes
    scores = {score for _, score in outcomes}
    assert len(scores) == 1
