"""Telemetry subsystem tests: tracer, metrics, flight recorder, gateway wiring.

Acceptance property (ISSUE 10): a process-backend gateway run with telemetry
ON produces bit-identical verdicts to telemetry OFF, ships worker spans back
across the pool boundary re-parented under the submitting audit span, and
``python -m repro.obs report`` renders per-stage p50/p95 latency and
queries-per-verdict from the exported trace JSONL.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.config import RuntimeConfig
from repro.obs import MetricsRegistry, Stopwatch, get_tracer, merge_snapshots
from repro.obs.export import export_jsonl, export_metrics, load_trace
from repro.obs.metrics import QUERY_BUCKETS
from repro.obs.report import (
    percentile,
    queries_per_verdict,
    render_report,
    stage_summary,
    summarize,
)
from repro.obs.trace import TraceContext, collect, rebased, relative_to
from repro.obs.__main__ import main as obs_main
from repro.runtime import AuditGateway
from repro.runtime.registry import DetectorSpec
from repro.utils.timer import Timer


@pytest.fixture(autouse=True)
def clean_tracer():
    """The tracer is process-global; every test starts and ends it empty."""
    tracer = get_tracer()
    tracer.disable()
    tracer.drain()
    yield tracer
    tracer.disable()
    tracer.drain()


# ---------------------------------------------------------------------------
# span tracing
# ---------------------------------------------------------------------------

def test_disabled_tracer_is_a_noop(clean_tracer):
    with clean_tracer.span("outer") as handle:
        assert handle.set(key="value") is handle  # chainable no-op
    assert clean_tracer.start_span("x").end() is None
    assert clean_tracer.record("y", 0.0, 1.0) is None
    assert len(clean_tracer) == 0 and clean_tracer.recorded == 0


def test_nested_spans_parent_and_share_a_trace(clean_tracer):
    clean_tracer.enable()
    with clean_tracer.span("outer"):
        with clean_tracer.span("inner", stage="fit"):
            pass
    inner, outer = clean_tracer.drain()
    assert (inner.name, outer.name) == ("inner", "outer")
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert inner.attrs == {"stage": "fit"}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_start_span_handle_ends_once(clean_tracer):
    clean_tracer.enable()
    handle = clean_tracer.start_span("manual")
    try:
        handle.set(k=1)
    finally:
        handle.end()
    handle.end()  # idempotent
    spans = clean_tracer.drain()
    assert [s.name for s in spans] == ["manual"]
    assert spans[0].attrs == {"k": 1}


def test_record_emits_a_complete_span(clean_tracer):
    clean_tracer.enable()
    span_id = clean_tracer.record("gateway.audit", 1.0, 3.5, tenant="a")
    (span,) = clean_tracer.drain()
    assert span.span_id == span_id
    assert span.duration == 2.5 and span.attrs == {"tenant": "a"}


def test_collect_sink_works_with_tracer_disabled(clean_tracer):
    """A worker's tracer is globally off; the per-task sink still collects,
    parented under the shipped-in context."""
    ctx = TraceContext(trace_id="t1", span_id="s1")
    with collect(ctx) as spans:
        assert clean_tracer.active()
        with clean_tracer.span("pool.execute"):
            with clean_tracer.span("inspect.prompt"):
                pass
    assert not clean_tracer.active()
    assert len(clean_tracer) == 0  # nothing leaked into the global buffer
    inner, root = spans
    assert root.trace_id == "t1" and root.parent_id == "s1"
    assert inner.parent_id == root.span_id


def test_relative_and_rebased_round_trip(clean_tracer):
    ctx = TraceContext(trace_id="t", span_id="s")
    with collect(ctx) as spans:
        with clean_tracer.span("pool.execute"):
            pass
    shipped = relative_to(spans, spans[0].start)
    assert shipped[0].start == 0.0
    landed = rebased(shipped, anchor_end=100.0)
    assert landed[0].end == 100.0
    assert landed[0].duration == pytest.approx(spans[0].duration)
    # the originals are untouched (both helpers copy)
    assert spans[0].start != 0.0 or spans[0].end != 100.0


def test_span_records_pickle_and_serialize(clean_tracer):
    clean_tracer.enable()
    with clean_tracer.span("x", n=3):
        pass
    (span,) = clean_tracer.drain()
    clone = pickle.loads(pickle.dumps(span))
    assert clone == span
    assert type(span).from_dict(span.to_dict()) == span


# ---------------------------------------------------------------------------
# mergeable metrics
# ---------------------------------------------------------------------------

def test_counters_gauges_histograms_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("store.hits").inc(3)
    registry.gauge("cache.bytes").set(128)
    histogram = registry.histogram("audit_seconds", tenant="a")
    histogram.observe(0.002)
    histogram.observe(999.0)  # overflow bucket
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"store.hits": 3}
    assert snapshot["gauges"] == {"cache.bytes": 128}
    payload = snapshot["histograms"]["audit_seconds{tenant=a}"]
    assert payload["count"] == 2
    assert len(payload["counts"]) == len(payload["buckets"]) + 1
    assert payload["counts"][-1] == 1  # the overflow landed past the last bound


def test_merge_snapshots_is_associative():
    snaps = []
    for hits, value in ((1, 0.01), (2, 0.5), (4, 5.0)):
        registry = MetricsRegistry()
        registry.counter("hits").inc(hits)
        registry.histogram("lat").observe(value)
        snaps.append(registry.snapshot())
    a, b, c = snaps
    left = merge_snapshots(merge_snapshots(a, b), c)
    right = merge_snapshots(a, merge_snapshots(b, c))
    assert left == right
    assert left["counters"]["hits"] == 7
    assert left["histograms"]["lat"]["count"] == 3


def test_merge_rejects_mismatched_buckets():
    first = MetricsRegistry()
    first.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
    second = MetricsRegistry()
    second.histogram("lat", buckets=(1.0, 4.0)).observe(1.5)
    with pytest.raises(ValueError, match="bucket layouts differ"):
        merge_snapshots(first.snapshot(), second.snapshot())


def test_registry_pickles_without_its_lock():
    registry = MetricsRegistry()
    registry.counter("n").inc(9)
    registry.histogram("q", buckets=QUERY_BUCKETS).observe(10)
    clone = pickle.loads(pickle.dumps(registry))
    clone.counter("n").inc(1)  # the recreated lock works
    assert clone.snapshot()["counters"]["n"] == 10


def test_counter_properties_preserve_component_stats():
    """The rebased component counters keep their attribute API and stats
    shape, while the values land in the mergeable registry."""
    from repro.runtime.store import ArtifactStore

    store = ArtifactStore(None)
    store.misses += 2
    store.hits += 1
    assert (store.hits, store.misses) == (1, 2)
    assert store.metrics.snapshot()["counters"] == {"store.hits": 1, "store.misses": 2}


# ---------------------------------------------------------------------------
# stopwatch / Timer unification
# ---------------------------------------------------------------------------

def test_stopwatch_measures_and_clears():
    watch = Stopwatch()
    assert not watch.running and watch.elapsed() == 0.0 and watch.stop() == 0.0
    assert watch.start() is watch and watch.running
    assert watch.elapsed() >= 0.0 and watch.running  # elapsed() does not stop
    assert watch.stop() >= 0.0 and not watch.running


def test_timer_accumulates_named_durations():
    timer = Timer()
    with timer.measure("fit"):
        pass
    with timer.measure("fit"):
        pass
    with timer.measure("audit"):
        pass
    assert timer.total("fit") >= 0.0
    assert set(timer.totals()) == {"fit", "audit"}
    assert timer.total("missing") == 0.0


# ---------------------------------------------------------------------------
# export + flight-recorder report
# ---------------------------------------------------------------------------

def _sample_spans(tracer):
    tracer.enable()
    audit_id = tracer.record("gateway.audit", 0.0, 2.0, queries=100, cache="cold")
    tracer.record("pool.execute", 0.5, 1.9, parent_id=audit_id)
    tracer.record("gateway.audit", 0.0, 1.0, queries=0, cache="memory")
    return tracer.drain()


def test_export_round_trips_and_checks_version(tmp_path, clean_tracer):
    spans = _sample_spans(clean_tracer)
    path = export_jsonl(spans, str(tmp_path / "trace.jsonl"))
    assert load_trace(path) == spans
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "meta", "format_version": 999}\n')
    with pytest.raises(ValueError, match="format_version"):
        load_trace(str(bad))


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile([], 50) == 0.0


def test_report_stages_and_query_economics(clean_tracer):
    spans = _sample_spans(clean_tracer)
    stages = stage_summary(spans)
    assert stages["gateway.audit"]["count"] == 2
    assert stages["gateway.audit"]["max"] == 2.0
    economy = queries_per_verdict(spans)
    assert economy == {
        "verdicts": 2,
        "cold_verdicts": 1,
        "queries": 100,
        "amortized_queries_per_verdict": 50.0,
    }
    summary = summarize(spans, top=1)
    assert [s.duration for s in summary["slowest"]] == [2.0]
    text = render_report(spans)
    assert "p50" in text and "p95" in text
    assert "amortized queries/verdict: 50.00" in text
    assert "pool.execute" in text  # the waterfall shows the child span


def test_report_cli_renders_and_fails_cleanly(tmp_path, capsys, clean_tracer):
    spans = _sample_spans(clean_tracer)
    path = export_jsonl(spans, str(tmp_path / "trace.jsonl"))
    assert obs_main(["report", path]) == 0
    assert "per-stage latency" in capsys.readouterr().out
    assert obs_main(["report", str(tmp_path / "absent.jsonl")]) == 1
    empty = export_jsonl([], str(tmp_path / "empty.jsonl"))
    assert obs_main(["report", empty]) == 1
    assert obs_main(["report", path, "--format", "json"]) == 0
    assert '"stages"' in capsys.readouterr().out


def test_export_metrics_writes_snapshot(tmp_path):
    registry = MetricsRegistry()
    registry.counter("n").inc(5)
    path = export_metrics(registry.snapshot(), str(tmp_path / "metrics.json"))
    import json

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["snapshot"]["counters"] == {"n": 5}


# ---------------------------------------------------------------------------
# gateway stats schema (dashboard snapshot)
# ---------------------------------------------------------------------------

TENANT_KEYS = {
    "defense", "architecture", "precision", "family", "detector_source",
    "accepted", "rejected", "query_count", "query_calls", "cache_hits",
    "dedup_hits", "provisioned", "amortized_queries_per_verdict",
}
REGISTRY_KEYS = {"hits", "store_hits", "fits", "loaded"}
STORE_KEYS = {"hits", "misses"}
VERDICT_CACHE_KEYS = {
    "enabled", "memory_hits", "store_hits", "dedup_hits", "misses", "hit_rate",
    "inspections", "entries",
}
WORKER_POOL_KEYS = {"backend", "workers", "started", "tasks"}
TELEMETRY_KEYS = {"enabled", "spans_recorded", "metrics"}
TOP_LEVEL_KEYS = {
    "tenants", "registry", "store", "verdict_cache",
    "amortized_queries_per_verdict", "worker_pool", "telemetry",
    "in_flight", "max_in_flight",
}


def test_stats_snapshot_schema(
    micro_profile, tiny_dataset, tiny_test_dataset, trained_mlp, tmp_path
):
    """The full dashboard key set, asserted exactly so a silently dropped
    (or renamed) panel fails loudly."""
    runtime = RuntimeConfig(cache_dir=str(tmp_path), verdict_cache=True)
    with AuditGateway(runtime=runtime) as gateway:
        spec = DetectorSpec(
            defense="bprom", profile=micro_profile, architecture="mlp", seed=0
        )
        gateway.register_tenant(
            "tabular-mlp", spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset
        )
        list(gateway.stream([("vendor-0", copy.deepcopy(trained_mlp))]))
        stats = gateway.stats()
    assert set(stats) == TOP_LEVEL_KEYS
    assert set(stats["tenants"]) == {"tabular-mlp"}
    assert set(stats["tenants"]["tabular-mlp"]) == TENANT_KEYS
    assert set(stats["registry"]) == REGISTRY_KEYS
    for root_stats in stats["store"].values():
        assert set(root_stats) == STORE_KEYS
    assert set(stats["verdict_cache"]) == VERDICT_CACHE_KEYS
    assert set(stats["worker_pool"]) == WORKER_POOL_KEYS
    assert set(stats["telemetry"]) == TELEMETRY_KEYS
    assert stats["telemetry"]["enabled"] is False  # runtime did not opt in
    metrics = stats["telemetry"]["metrics"]
    assert set(metrics) == {"counters", "gauges", "histograms"}
    # latency histograms are recorded even with the tracer off
    assert "gateway.audit_seconds{tenant=tabular-mlp}" in metrics["histograms"]
    assert metrics["histograms"]["gateway.audit_seconds{tenant=tabular-mlp}"]["count"] == 1
    # the rebased component counters show up in the merged fleet metrics
    assert metrics["counters"]["verdict_cache.misses"] == 1
    assert metrics["counters"]["pool.tasks"] == 1


def test_stats_verdict_cache_panel_is_none_without_cache(tmp_path):
    with AuditGateway(runtime=RuntimeConfig(cache_dir=str(tmp_path))) as gateway:
        assert gateway.stats()["verdict_cache"] is None


# ---------------------------------------------------------------------------
# acceptance: process backend, telemetry ON == OFF, cross-pool re-parenting
# ---------------------------------------------------------------------------

def test_process_backend_telemetry_on_is_bit_identical_and_reparents(
    micro_profile, tiny_dataset, tiny_test_dataset, trained_mlp, tmp_path, capsys
):
    spec = DetectorSpec(
        defense="bprom", profile=micro_profile, architecture="mlp", seed=0
    )
    submissions = [("vendor-0", trained_mlp), ("vendor-1", trained_mlp)]
    results = {}
    for telemetry in (False, True):
        runtime = RuntimeConfig(
            workers=2,
            cache_dir=str(tmp_path / ("on" if telemetry else "off")),
            backend="process",
            telemetry=telemetry,
        )
        with AuditGateway(runtime=runtime) as gateway:
            gateway.register_tenant(
                "tabular-mlp", spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset
            )
            assert gateway.worker_pool.backend == "process"
            results[telemetry] = {
                verdict.name: verdict
                for verdict in gateway.stream(
                    (name, copy.deepcopy(model)) for name, model in submissions
                )
            }
            stats = gateway.stats()
        assert stats["telemetry"]["enabled"] is telemetry

    # -- bit-identity: telemetry must be a pure observer --------------------
    for name in ("vendor-0", "vendor-1"):
        on, off = results[True][name], results[False][name]
        assert on.backdoor_score == off.backdoor_score, name
        assert on.is_backdoored == off.is_backdoored, name
        assert on.prompted_accuracy == off.prompted_accuracy, name
        assert on.query_count == off.query_count, name
        assert on.query_calls == off.query_calls, name

    # -- the trace re-parents across the process-pool boundary --------------
    tracer = get_tracer()
    spans = tracer.drain()
    tracer.disable()
    by_id = {s.span_id: s for s in spans}
    audits = [s for s in spans if s.name == "gateway.audit"]
    assert {s.attrs["key"] for s in audits} == {"vendor-0", "vendor-1"}
    pool_spans = [s for s in spans if s.name == "pool.execute"]
    assert len(pool_spans) == 2
    for pool_span in pool_spans:
        audit = by_id[pool_span.parent_id]  # worker root parents the audit span
        assert audit.name == "gateway.audit"
        assert pool_span.trace_id == audit.trace_id
        # rebased onto the gateway clock: nested inside the audit span, with
        # the leading gap (queue wait) in front
        assert audit.start <= pool_span.start <= pool_span.end <= audit.end + 1e-9
    # the worker-side inspection spans crossed the boundary too
    prompt_spans = [s for s in spans if s.name == "inspect.prompt"]
    assert len(prompt_spans) == 2
    for prompt_span in prompt_spans:
        assert by_id[prompt_span.parent_id].name == "pool.execute"
        assert prompt_span.attrs["queries"] > 0
    assert any(s.name == "prompt.generation" for s in spans)
    # gateway-side spans share the submissions' traces
    route_traces = {s.trace_id for s in spans if s.name == "gateway.route"}
    assert {s.trace_id for s in audits} <= route_traces

    # -- the flight recorder renders p50/p95 and query economics ------------
    path = export_jsonl(spans, str(tmp_path / "trace.jsonl"))
    assert obs_main(["report", path, "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "p50" in out and "p95" in out
    assert "inspect.prompt" in out and "pool.execute" in out
    total_queries = sum(results[True][n].query_count for n in results[True])
    assert f"amortized queries/verdict: {total_queries / 2:.2f}" in out
