"""Zero-dependency telemetry: span tracing, mergeable metrics, flight recorder.

The paper's central economics are *queries and latency per audited model*;
this package records where both go inside a single audit and across a fleet:

* :mod:`repro.obs.trace` — context-manager spans over monotonic clocks with
  propagated trace/span ids; worker-side spans are collected per task and
  shipped back through pool results, then re-parented onto the submitting
  gateway's audit span;
* :mod:`repro.obs.metrics` — named counters, gauges and fixed-bucket
  histograms whose snapshots merge associatively across threads and
  processes (the component ``stats()`` counters are rebased onto these);
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — JSONL trace export and
  the flight-recorder CLI (``python -m repro.obs report``) printing
  per-stage latency percentiles, critical-path waterfalls and amortised
  queries-per-verdict.

Everything here is monotonic-clock only (``time.perf_counter``); the JSONL
exporter is the single module allowed to stamp wall-clock metadata
(repro-lint D104 allowlists exactly ``repro/obs/export.py``).  The disabled
tracer is a shared no-op, so instrumentation costs one branch on the hot
path, and nothing in this package touches RNG state — telemetry on/off is
bit-identical by construction.
"""

from repro.obs.clock import Stopwatch, now
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_property,
    merge_snapshots,
)
from repro.obs.trace import SpanRecord, TraceContext, Tracer, get_tracer, new_id

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Stopwatch",
    "TraceContext",
    "Tracer",
    "counter_property",
    "get_tracer",
    "merge_snapshots",
    "new_id",
    "now",
]
