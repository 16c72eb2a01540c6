"""Per-layer figures of a traced pass, and the two additive breakdowns.

Span figures come from the spans the program already records
(``gateway.audit``, ``gateway.route``, ``cache.lookup``, ``pool.execute``,
``inspect.prompt``, ``prompt.generation``, ``inspect.score``,
``registry.get_or_fit``, ``fit.<stage>``); the submit and query timers are the
benchmark's own; counts come from ``gateway.stats()``.  Every difference
below is taken per cold audit, so the breakdown terms add up exactly to the
benchmark-side latency they split.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.report import percentile
from repro.obs.trace import SpanRecord

#: audit-latency breakdown terms, in critical-path order
LATENCY_PARTS = (
    "client",
    "dispatch",
    "query",
    "render",
    "outside_generation",
    "score",
    "workers_unaccounted",
)
SETUP_PARTS = ("fit_stages", "registry_store", "unaccounted")


def _total(spans: Sequence[SpanRecord], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def cold_audits(spans: List[SpanRecord], harvests: Sequence[Any]) -> List[Dict[str, float]]:
    """Seconds spent in each part of every traced cold audit."""
    by_key = {h.key: h for h in harvests if h.cache == "cold"}
    traces: Dict[str, List[SpanRecord]] = defaultdict(list)
    for span in spans:
        traces[span.trace_id].append(span)
    rows = []
    for group in traces.values():
        roots = [s for s in group if s.name == "gateway.audit"]
        if len(roots) != 1 or roots[0].attrs.get("cache") != "cold":
            continue
        harvest = by_key[roots[0].attrs["key"]]
        audit = roots[0].duration
        execute = _total(group, "pool.execute")
        prompt = _total(group, "inspect.prompt")
        score = _total(group, "inspect.score")
        generations = _total(group, "prompt.generation")
        query = harvest.query_seconds
        rows.append(
            {
                "latency": harvest.latency,
                "audit": audit,
                "execute": execute,
                "prompt": prompt,
                "generation_count": sum(1 for s in group if s.name == "prompt.generation"),
                "images": harvest.query_images,
                "query_count": harvest.query_count,
                "query_calls": harvest.query_calls,
                "client": harvest.latency - audit,
                "dispatch": audit - execute,
                "query": query,
                "render": generations - query,
                "outside_generation": prompt - generations,
                "score": score,
                "workers_unaccounted": execute - prompt - score,
            }
        )
    return rows


def _mean(rows: Sequence[Dict[str, float]], field: str) -> float:
    return statistics.fmean(row[field] for row in rows)


def per_layer(
    timed_spans: List[SpanRecord],
    fit_phases: List[List[SpanRecord]],
    stand_ups: List[Tuple[float, List[SpanRecord]]],
    submit_seconds: Sequence[float],
    harvests: Sequence[Any],
    stats: Dict[str, Any],
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """The traced pass's per-layer metrics and its two breakdowns.

    ``fit_phases`` holds the spans of each stand-up that fitted detectors
    (the timed stand-ups of a cold workload, the untimed pre-fit of a warm
    one); ``stand_ups`` holds each timed stand-up's seconds and spans.
    """
    rows = cold_audits(timed_spans, harvests)
    if not rows:
        raise RuntimeError("the traced pass recorded no cold audit")
    ms = 1000.0
    get_or_fit = [_total(spans, "registry.get_or_fit") for _s, spans in stand_ups]
    fitted = [sum(s.duration for s in spans if s.name.startswith("fit.")) for _s, spans in stand_ups]
    setup = [seconds for seconds, _spans in stand_ups]
    shards = stats["store"].values()
    cache = stats["verdict_cache"]
    images = sum(row["images"] for row in rows)
    query_seconds = sum(row["query"] for row in rows)
    metrics = {
        "runtime.gateway.submit_ms": percentile(submit_seconds, 50.0) * ms,
        "runtime.gateway.dispatch_ms": _mean(rows, "dispatch") * ms,
        "runtime.gateway.route_ms": percentile(
            [s.duration for s in timed_spans if s.name == "gateway.route"], 50.0
        )
        * ms,
        "runtime.gateway.setup_unaccounted_s": statistics.fmean(
            total - fits for total, fits in zip(setup, get_or_fit)
        ),
        "runtime.verdict_cache.hit_rate": cache["hit_rate"],
        "runtime.verdict_cache.inspections": cache["inspections"],
        "runtime.verdict_cache.dedup_hits": cache["dedup_hits"],
        "runtime.verdict_cache.lookup_ms": percentile(
            [s.duration for s in timed_spans if s.name == "cache.lookup"], 50.0
        )
        * ms,
        "runtime.workers.tasks": stats["worker_pool"]["tasks"],
        "runtime.workers.execute_ms": _mean(rows, "execute") * ms,
        "runtime.workers.unaccounted_ms": _mean(rows, "workers_unaccounted") * ms,
        "runtime.registry.get_or_fit_s": statistics.fmean(get_or_fit),
        "runtime.registry.fits": stats["registry"]["fits"],
        "runtime.registry.store_hits": stats["registry"]["store_hits"],
        "runtime.store.hits": sum(shard["hits"] for shard in shards),
        "runtime.store.misses": sum(shard["misses"] for shard in shards),
        "core.shadow.fit_s": statistics.fmean(_total(p, "fit.shadow") for p in fit_phases),
        "core.prompting_stage.fit_s": statistics.fmean(_total(p, "fit.prompt") for p in fit_phases),
        "core.meta.fit_s": statistics.fmean(_total(p, "fit.meta") for p in fit_phases),
        "core.detector.prompt_ms": _mean(rows, "prompt") * ms,
        "core.meta.score_ms": _mean(rows, "score") * ms,
        "prompting.blackbox.query_ms": _mean(rows, "query") * ms,
        "prompting.blackbox.render_ms": _mean(rows, "render") * ms,
        "prompting.blackbox.outside_generation_ms": _mean(rows, "outside_generation") * ms,
        "prompting.blackbox.generations_per_verdict": _mean(rows, "generation_count"),
        "prompting.blackbox.images_per_call": sum(r["query_count"] for r in rows)
        / sum(r["query_calls"] for r in rows),
        "models.classifier.forward_us_per_image": query_seconds / images * 1e6,
    }
    breakdowns = {
        "audit_latency_s": {
            "total": _mean(rows, "latency"),
            "samples": len(rows),
            **{part: _mean(rows, part) for part in LATENCY_PARTS},
        },
        "setup_s": {
            "total": statistics.fmean(setup),
            "samples": len(setup),
            "fit_stages": statistics.fmean(fitted),
            "registry_store": statistics.fmean(g - f for g, f in zip(get_or_fit, fitted)),
            "unaccounted": statistics.fmean(t - g for t, g in zip(setup, get_or_fit)),
        },
    }
    return metrics, breakdowns


def format_breakdown(workload: str, name: str, parts: Dict[str, float]) -> List[str]:
    """Printable lines of one breakdown: each term, its share and the sum."""
    total = parts["total"]
    terms = LATENCY_PARTS if name == "audit_latency_s" else SETUP_PARTS
    scale, unit = (1000.0, "ms") if name == "audit_latency_s" else (1.0, "s")
    lines = [
        f"{workload} {name} breakdown: mean {total * scale:.4f} {unit} "
        f"over {int(parts['samples'])} sample(s)"
    ]
    for term in terms:
        share = parts[term] / total if total else 0.0
        lines.append(f"  {term:<22} {parts[term] * scale:12.4f} {unit}  {share:7.1%}")
    summed = sum(parts[term] for term in terms)
    lines.append(f"  {'sum':<22} {summed * scale:12.4f} {unit}  {summed / total:7.1%}")
    return lines
