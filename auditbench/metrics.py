"""Metric names, units and the order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

from repro.obs.report import percentile

#: what a user of the gateway sees; measured with tracing off
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "verdicts_per_s": "verdicts/s",
    "audit_p50_s": "s",
    "audit_p90_s": "s",
    "queries_per_verdict": "images/verdict",
    "peak_rss_mb": "MB",
}

#: single-layer figures from the traced pass (see layers.py for sources)
PER_LAYER_UNITS: Dict[str, str] = {
    "runtime.gateway.submit_ms": "ms",
    "runtime.gateway.dispatch_ms": "ms",
    "runtime.gateway.route_ms": "ms",
    "runtime.gateway.setup_unaccounted_s": "s",
    "runtime.verdict_cache.hit_rate": "fraction",
    "runtime.verdict_cache.inspections": "count",
    "runtime.verdict_cache.dedup_hits": "count",
    "runtime.verdict_cache.lookup_ms": "ms",
    "runtime.workers.tasks": "count",
    "runtime.workers.execute_ms": "ms",
    "runtime.workers.unaccounted_ms": "ms",
    "runtime.workers.cpu_s_per_verdict": "s/verdict",
    "runtime.registry.get_or_fit_s": "s",
    "runtime.registry.fits": "count",
    "runtime.registry.store_hits": "count",
    "runtime.store.hits": "count",
    "runtime.store.misses": "count",
    "core.shadow.fit_s": "s",
    "core.prompting_stage.fit_s": "s",
    "core.meta.fit_s": "s",
    "core.detector.prompt_ms": "ms",
    "core.meta.score_ms": "ms",
    "prompting.blackbox.query_ms": "ms",
    "prompting.blackbox.render_ms": "ms",
    "prompting.blackbox.outside_generation_ms": "ms",
    "prompting.blackbox.generations_per_verdict": "count",
    "prompting.blackbox.images_per_call": "images/call",
    "models.classifier.forward_us_per_image": "us/image",
    "obs.trace_overhead_frac": "fraction",
}

#: percentiles a tail may be reported at, lowest first
TAIL_LADDER: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)


def supported_percentile(samples: int, beyond: int = 10) -> Optional[float]:
    """The highest ladder percentile with at least ``beyond`` samples past it."""
    # rounded: 100 - 99.9 is not exactly 0.1 in binary floating point
    supported = [q for q in TAIL_LADDER if round(samples * (100.0 - q) / 100.0, 6) >= beyond]
    return supported[-1] if supported else None


def tail(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """The supported tail percentile of ``values`` with its sample count."""
    q = supported_percentile(len(values))
    return {
        "q": q,
        "value": percentile(values, q) if q is not None else None,
        "samples": len(values),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def metric_line(workload: str, name: str, value: float, unit: str, extra: str = "") -> str:
    return f"{workload} {name} {value:.6g} {unit}{('  ' + extra) if extra else ''}"
