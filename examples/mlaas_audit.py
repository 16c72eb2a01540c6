"""MLaaS audit scenario: a multi-tenant gateway screening query-only models.

This is the deployment story from the paper's introduction, scaled to the
shape a production auditor actually has: an organisation sources image
classifiers from *several* model markets — different architecture families,
different suspicious tasks — and only has black-box query access (confidence
vectors).  One :class:`~repro.runtime.gateway.AuditGateway` is the front door
for the whole fleet:

* each *tenant* (here: a ResNet vision catalogue on CIFAR-10 and an MLP
  catalogue on SVHN) gets its detector through the
  :class:`~repro.runtime.registry.DetectorRegistry` — fitted at most once
  fleet-wide and reusable from the registry's artifact store by any other
  process (this demo uses a throwaway store directory, so each run fits
  cold; point ``cache_dir`` at a durable path to watch later runs stand
  both tenants up with zero training);
* mixed submissions are routed to their tenant by architecture family and
  metadata, fanned out under one shared in-flight budget, and the per-tenant
  verdict streams merge into a single completion-ordered stream;
* models flagged as backdoored are then subjected to input-level filtering
  (STRIP) at inference time, while clean models skip the per-input overhead —
  avoiding the false-positive cost shown in Table 1;
* the fleet-scale **verdict cache** (``verdict_cache=True``) memoises
  verdicts by model-weight fingerprint: resubmitting an already-audited
  model — the common case in redundant production traffic — is served from
  the cache with *zero* additional black-box queries;
* inspections run on a shared **process-backed worker pool**
  (``backend="process"``): pool workers hydrate each tenant's
  detector from the artifact store by registry key — never refitting — so
  the fleet uses every core while verdicts stay bit-identical to the
  thread and serial paths;
* a :class:`~repro.runtime.gateway.TenantProvisioner` stands tenants up on
  **first touch**: when a brand-new model market shows up mid-stream, the
  gateway derives the detector spec from the submission's metadata and fits
  it through the registry's single-flight lock — exactly once, fleet-wide;
* ``gateway.stats()`` closes the loop: per-tenant verdict counts, query
  budgets, cache hit-rate, amortised queries-per-verdict, worker-pool task
  counters, registry hit/fit counters and store statistics in one
  snapshot;
* ``telemetry=True`` traces every submission end to end — worker-side
  inspection spans ship back across the process-pool boundary — and the
  **flight recorder** at the bottom renders per-stage latency percentiles,
  query economics and critical-path waterfalls from the exported trace
  (the same report as ``python -m repro.obs report <trace.jsonl>``).

Run with:  python examples/mlaas_audit.py
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.attacks import attack_defaults, build_attack
from repro.config import FAST, RuntimeConfig
from repro.datasets import load_dataset
from repro.defenses import StripDefense
from repro.defenses.base import triggered_and_clean_split
from repro.models import build_classifier
from repro.obs import get_tracer
from repro.obs.export import export_jsonl
from repro.obs.report import render_report
from repro.runtime import AuditGateway, DetectorRegistry, DetectorSpec, TenantProvisioner


def build_vendor_models(profile, architecture, source_train, seed=0):
    """Simulate one market's catalogue: two clean models, two compromised."""
    catalogue = {}
    attacks = {}
    for index in range(2):
        name = f"{architecture}-clean-{index}"
        model = build_classifier(
            architecture, source_train.num_classes, profile.image_size,
            rng=seed + index, name=name,
        )
        model.fit(source_train, profile.classifier, rng=seed + 10 + index)
        catalogue[name] = model
    for index, attack_name in enumerate(("blend", "adaptive_patch")):
        name = f"{architecture}-{attack_name}"
        attack = build_attack(attack_name, target_class=1, seed=seed + 20 + index)
        defaults = attack_defaults(attack_name)
        poisoning = attack.poison(
            source_train, poison_rate=defaults.poison_rate,
            cover_rate=defaults.cover_rate, rng=seed + 30 + index,
        )
        model = build_classifier(
            architecture, source_train.num_classes, profile.image_size,
            rng=seed + 40 + index, name=name,
        )
        model.fit(poisoning.dataset, profile.classifier, rng=seed + 50 + index)
        catalogue[name] = model
        attacks[name] = attack
    return catalogue, attacks


def main() -> None:
    profile = FAST
    target_train, target_test = load_dataset("stl10", profile, seed=0)

    # two tenants, two architecture families, two suspicious tasks
    cifar_train, cifar_test = load_dataset("cifar10", profile, seed=0)
    svhn_train, svhn_test = load_dataset("svhn", profile, seed=0)

    print("building two vendor catalogues (2 clean + 2 backdoored models each) ...")
    cnn_catalogue, cnn_attacks = build_vendor_models(profile, "resnet18", cifar_train, seed=0)
    mlp_catalogue, _ = build_vendor_models(profile, "mlp", svhn_train, seed=100)

    with tempfile.TemporaryDirectory() as scratch:
        # the registry's store persists fitted detectors: re-pointing
        # cache_dir at a durable path makes every later gateway process stand
        # its tenants up with zero training
        # the process backend dispatches inspections to a persistent pool of
        # OS processes; workers warm-load detectors from this store by
        # registry key (never refitting), so the fleet scales across cores
        # telemetry=True turns on span tracing: every submission gets a trace
        # from route through pool execution to verdict, and the worker-side
        # inspection spans ship back across the process boundary
        runtime = RuntimeConfig(
            workers=2,
            backend="process",
            cache_dir=str(Path(scratch) / "store"),
            verdict_cache=True,
            telemetry=True,
        )
        registry = DetectorRegistry(runtime=runtime)
        provisioner = TenantProvisioner(
            reserved_clean=cifar_test,
            target_train=target_train,
            target_test=target_test,
            template=DetectorSpec(
                defense="bprom", profile=profile, architecture="resnet18", seed=0
            ),
        )
        with AuditGateway(
            registry=registry, max_in_flight=4, provisioner=provisioner
        ) as gateway:
            print("standing up two tenants through the detector registry ...")
            start = time.perf_counter()
            cnn_tenant = gateway.register_tenant(
                "vision-cnn",
                DetectorSpec(defense="bprom", profile=profile, architecture="resnet18", seed=0),
                cifar_test, target_train, target_test,
            )
            mlp_tenant = gateway.register_tenant(
                "tabular-mlp",
                DetectorSpec(defense="bprom", profile=profile, architecture="mlp", seed=0),
                svhn_test, target_train, target_test,
            )
            print(
                f"tenants ready in {time.perf_counter() - start:.2f}s "
                f"(vision-cnn: {cnn_tenant.entry.source}, tabular-mlp: {mlp_tenant.entry.source})"
            )

            # mixed submission stream; the auditor only calls predict_proba
            submissions = [
                (name, model, {"architecture": model.architecture})
                for name, model in {**cnn_catalogue, **mlp_catalogue}.items()
            ]
            query_functions = {
                name: model.predict_proba
                for name, model in {**cnn_catalogue, **mlp_catalogue}.items()
            }

            print("\n--- merged audit stream (verdicts arrive as models finish) ---")
            start = time.perf_counter()
            first_verdict_s = None
            quarantined = []
            for verdict in gateway.stream(submissions, query_functions=query_functions):
                if first_verdict_s is None:
                    first_verdict_s = time.perf_counter() - start
                action = "REJECT / quarantine" if verdict.is_backdoored else "accept"
                print(
                    f"[{verdict.tenant:11s}] {verdict.name:24s} "
                    f"score {verdict.backdoor_score:.3f} "
                    f"({verdict.query_count} queries in {verdict.query_calls} calls) -> {action}"
                )
                if verdict.is_backdoored and verdict.name in cnn_attacks:
                    quarantined.append(verdict.name)
            total_s = time.perf_counter() - start
            print(
                f"\ntime to first verdict {first_verdict_s:.2f}s, mixed catalogue "
                f"{total_s:.2f}s ({len(submissions) / total_s:.2f} models/s)"
            )

            for name in quarantined:
                # second line of defense: per-input filtering on quarantined models
                attack = cnn_attacks[name]
                strip = StripDefense(cifar_test, num_overlays=6, rng=0)
                clean_images, triggered_images = triggered_and_clean_split(
                    attack, cifar_test, max_samples=24, rng=0
                )
                evaluation = strip.evaluate(cnn_catalogue[name], clean_images, triggered_images)
                print(f"{name:24s} STRIP input filter on quarantined model: AUROC {evaluation.auroc:.3f}")

            # redundant traffic: a vendor re-uploads an already-audited model
            # under a new key; the verdict cache recognises the weights by
            # fingerprint and serves the verdict without spending a query
            resubmitted = next(iter(mlp_catalogue))
            print("\n--- warm resubmission (verdict cache) ---")
            start = time.perf_counter()
            [warm] = list(
                gateway.stream([(f"resubmit-{resubmitted}", mlp_catalogue[resubmitted])])
            )
            warm_s = time.perf_counter() - start
            print(
                f"{warm.name:32s} served from cache tier {warm.cache!r} in "
                f"{warm_s * 1000:.1f}ms with 0 new queries"
            )

            # a brand-new model market appears mid-stream: submissions route
            # by architecture *family*, and no transformer tenant was ever
            # registered — so the first mobilevit submission triggers the
            # provisioner: the spec derives from the metadata, the fit goes
            # through the registry's single-flight lock (exactly once even
            # with racing gateways), and the verdict arrives as usual
            print("\n--- first-touch auto-provisioning (new transformer market) ---")
            vit = build_classifier(
                "mobilevit", cifar_train.num_classes, profile.image_size,
                rng=200, name="mobilevit-clean-0",
            )
            vit.fit(cifar_train, profile.classifier, rng=201)
            start = time.perf_counter()
            [fresh] = list(
                gateway.stream(
                    [(vit.name, vit, {"architecture": vit.architecture})],
                    query_functions={vit.name: vit.predict_proba},
                )
            )
            print(
                f"{fresh.name:24s} routed to auto-provisioned tenant "
                f"{fresh.tenant!r} in {time.perf_counter() - start:.2f}s "
                f"(score {fresh.backdoor_score:.3f})"
            )

            stats = gateway.stats()
            pool_stats = stats["worker_pool"]
            print(
                f"\nworker pool: {pool_stats['backend']} backend x "
                f"{pool_stats['workers']} workers, {pool_stats['tasks']} inspection "
                f"tasks dispatched"
            )
            provisioned = sorted(
                tenant_id
                for tenant_id, tenant in stats["tenants"].items()
                if tenant["provisioned"]
            )
            print(f"auto-provisioned tenants: {provisioned}")
            cache_stats = stats["verdict_cache"]
            print(
                f"cache hit-rate {cache_stats['hit_rate']:.3f} "
                f"({cache_stats['memory_hits']} memory / {cache_stats['store_hits']} store / "
                f"{cache_stats['dedup_hits']} dedup hits, {cache_stats['misses']} misses, "
                f"{cache_stats['inspections']} inspections)"
            )
            print(
                f"amortised queries/verdict: fleet {stats['amortized_queries_per_verdict']:.1f}"
                + "".join(
                    f", {tenant_id} {tenant['amortized_queries_per_verdict']:.1f}"
                    for tenant_id, tenant in sorted(stats["tenants"].items())
                )
            )

            print("\n--- serving dashboard (gateway.stats()) ---")
            print(json.dumps(stats, indent=2, sort_keys=True))

        # everything above was traced; the flight recorder turns the span
        # buffer into per-stage percentiles, query economics and waterfalls
        # (the same report `python -m repro.obs report <trace>` renders)
        spans = get_tracer().drain()
        export_jsonl(spans, str(Path(scratch) / "trace.jsonl"))
        print("\n--- flight recorder (python -m repro.obs report) ---")
        print(render_report(spans, top=2))


if __name__ == "__main__":
    main()
