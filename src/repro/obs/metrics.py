"""Mergeable metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` names each metric as ``name{label=value,...}``
(labels sorted, so the key is canonical).  ``snapshot()`` returns a plain
JSON-able dict and :func:`merge_snapshots` folds any number of snapshots
together **associatively and commutatively**: counters and gauges add, and
histograms add bucket-wise (two histograms under one name must share a
bucket layout — fixed buckets are what make the merge associative).  That
is the whole cross-thread/cross-process story: every thread or worker
process accumulates locally and the readers merge, in any grouping order.

The pre-existing per-component ``stats()`` counters (store, registry,
verdict cache, worker pool) are *rebased* onto a registry via
:func:`counter_property`: the component keeps its public
``self.hits``-style attribute (every ``self.hits += 1`` site works
unchanged, and the ``stats()`` dict shape is preserved) while the value
lives in a named metric that the gateway's telemetry dashboard can merge.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

#: default seconds buckets for latency histograms (an implicit +inf bucket
#: always follows the last bound)
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: default buckets for per-verdict query counts (0 = served without queries)
QUERY_BUCKETS: Tuple[float, ...] = (
    0.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Counter:
    """A monotone tally (merge: sum)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A current level, e.g. resident bytes (merge: sum across owners)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket distribution; bucket ``i`` counts values ``<= buckets[i]``.

    The trailing ``counts`` slot is the overflow (+inf) bucket.  Fixed
    bounds, chosen at creation, are what keep merges associative — two
    snapshots of one metric always agree on layout.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram buckets must be sorted and unique, got {buckets!r}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value


class MetricsRegistry:
    """A named, labelled family of counters/gauges/histograms.

    Reads are lock-free dict lookups (safe under the GIL; components already
    serialise their own increments); creation races resolve through one
    lock.  Picklable — the lock is dropped and recreated — though worker
    clones normally start a *fresh* registry and the readers merge.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, Any]) -> str:
        if not labels:
            return name
        inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
        return f"{name}{{{inner}}}"

    def counter(self, name: str, **labels: Any) -> Counter:
        key = self._key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter())
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = self._key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge())
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        key = self._key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    key, Histogram(buckets if buckets is not None else LATENCY_BUCKETS)
                )
        return metric

    # -- snapshots -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy of every metric, in the mergeable layout."""
        with self._lock:
            return {
                "counters": {key: metric.value for key, metric in self._counters.items()},
                "gauges": {key: metric.value for key, metric in self._gauges.items()},
                "histograms": {
                    key: {
                        "buckets": list(metric.buckets),
                        "counts": list(metric.counts),
                        "count": metric.count,
                        "sum": metric.sum,
                    }
                    for key, metric in self._histograms.items()
                },
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold one snapshot into this registry (counters add, and so on)."""
        for key, value in snapshot.get("counters", {}).items():
            self.counter(key).value += value
        for key, value in snapshot.get("gauges", {}).items():
            self.gauge(key).value += value
        for key, payload in snapshot.get("histograms", {}).items():
            metric = self.histogram(key, buckets=payload["buckets"])
            _merge_histogram(metric_key=key, into=_as_payload(metric), payload=payload)
            metric.counts = [
                a + b for a, b in zip(metric.counts, payload["counts"])
            ]
            metric.count += payload["count"]
            metric.sum += payload["sum"]

    # -- pickling --------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_lock"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


def _as_payload(metric: Histogram) -> Dict[str, Any]:
    return {"buckets": list(metric.buckets), "counts": list(metric.counts)}


def _merge_histogram(metric_key: str, into: Dict[str, Any], payload: Dict[str, Any]) -> None:
    """Validate that two histogram snapshots share a bucket layout."""
    if list(into["buckets"]) != list(payload["buckets"]):
        raise ValueError(
            f"histogram {metric_key!r} bucket layouts differ "
            f"({into['buckets']} vs {payload['buckets']}); fixed buckets are "
            "what make snapshot merges associative"
        )
    if len(into["counts"]) != len(payload["counts"]):
        raise ValueError(f"histogram {metric_key!r} count arrays differ in length")


def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Associatively merge snapshots: counters/gauges add, histograms add.

    ``merge(a, merge(b, c)) == merge(merge(a, b), c)`` for any grouping, so
    per-thread, per-process and per-component snapshots can be folded in
    whatever order they arrive.
    """
    counters: Dict[str, Any] = {}
    gauges: Dict[str, Any] = {}
    histograms: Dict[str, Any] = {}
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in snapshot.get("gauges", {}).items():
            gauges[key] = gauges.get(key, 0) + value
        for key, payload in snapshot.get("histograms", {}).items():
            existing = histograms.get(key)
            if existing is None:
                histograms[key] = {
                    "buckets": list(payload["buckets"]),
                    "counts": list(payload["counts"]),
                    "count": payload["count"],
                    "sum": payload["sum"],
                }
                continue
            _merge_histogram(metric_key=key, into=existing, payload=payload)
            existing["counts"] = [
                a + b for a, b in zip(existing["counts"], payload["counts"])
            ]
            existing["count"] += payload["count"]
            existing["sum"] += payload["sum"]
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def counter_property(name: str) -> property:
    """A class attribute backing an int counter with a named registry metric.

    The owning class keeps a ``self.metrics`` :class:`MetricsRegistry`; the
    property reads and writes ``metrics.counter(name).value``, so existing
    ``self.hits += 1`` sites and ``stats()`` reads work unchanged while the
    value becomes mergeable telemetry.
    """

    def fget(self) -> int:
        return self.metrics.counter(name).value

    def fset(self, value: int) -> None:
        self.metrics.counter(name).value = value

    return property(fget, fset)
