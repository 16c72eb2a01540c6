"""Span tracing over monotonic clocks, propagated in- and cross-process.

A *span* is one named, timed region of an audit — ``gateway.audit`` wraps
submit-to-harvest, ``registry.get_or_fit`` wraps detector standup,
``fit.shadow``/``fit.prompt``/``fit.meta`` wrap the pipeline stages,
``pool.execute`` wraps one worker task, ``inspect.prompt`` /
``prompt.generation`` / ``inspect.score`` wrap the inspection itself.
Spans carry a ``trace_id`` (one per submission), a ``span_id`` and a
``parent_id``, so a flight recorder can reconstruct the critical path.

Three recording APIs, by call-site shape:

* :meth:`Tracer.span` — the primary context-manager form; propagates the
  ambient parent through a :class:`~contextvars.ContextVar` so nested spans
  parent automatically;
* :meth:`Tracer.start_span` — an explicit handle for regions that cannot be
  a ``with`` block; **must** be closed in a ``try/finally`` (repro-lint
  O101 flags a leaked handle);
* :meth:`Tracer.record` — a complete-record API for spans whose start and
  end are observed in different functions or threads (the gateway records
  each audit span at harvest time from the timestamp taken at submit);
  nothing is ever left open, so O101 does not apply.

Cross-process propagation: a submitting gateway pins a submission's ids in
a picklable :class:`TraceContext`; the pool-side task wrapper activates a
per-task :func:`collect` sink (a ContextVar, so concurrent thread-backend
tasks never interleave), records spans on the *worker's* clock, converts
them to offsets relative to task entry, and ships them back attached to the
verdict.  The gateway rebases them onto its own clock at harvest by
aligning the latest shipped span end with the harvest timestamp — queue
wait shows up as the leading gap under the audit span.

Ids are deterministic — ``pid`` plus a process-local counter — so tracing
never touches RNG state and cannot perturb verdict bit-identity.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.clock import now

_IDS = itertools.count(1)


def new_id() -> str:
    """A process-unique span/trace id: pid plus a monotone counter (no RNG)."""
    return f"{os.getpid():x}-{next(_IDS):x}"


@dataclass
class SpanRecord:
    """One finished span.  Picklable, so workers can ship spans in results."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpanRecord":
        return cls(
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            name=payload["name"],
            start=float(payload["start"]),
            end=float(payload["end"]),
            attrs=dict(payload.get("attrs") or {}),
        )


@dataclass(frozen=True)
class TraceContext:
    """The picklable coordinates a span tree is continued under elsewhere.

    ``span_id`` is the parent the receiving side's spans attach to (for pool
    tasks: the submission's audit span, whose id the gateway mints at submit
    time and records at harvest).
    """

    trace_id: str
    span_id: str


#: ambient (trace_id, span_id) the next opened span parents under
_CURRENT: ContextVar[Optional[Tuple[str, str]]] = ContextVar(
    "repro_obs_current", default=None
)
#: per-task span sink; when set, emitted spans go here instead of the global
#: buffer — lets a worker task trace even though its process-global tracer
#: is disabled, and keeps concurrent thread-backend tasks from interleaving
_SINK: ContextVar[Optional[List[SpanRecord]]] = ContextVar("repro_obs_sink", default=None)


class _NullHandle:
    """The shared no-op handle a disabled tracer hands out (zero allocation)."""

    __slots__ = ()

    def set(self, **_attrs: Any) -> "_NullHandle":
        return self

    def end(self) -> None:
        return None

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *_exc: Any) -> None:
        return None


_NULL = _NullHandle()


class SpanHandle:
    """An open span returned by :meth:`Tracer.start_span`.

    Close it exactly once with :meth:`end` inside a ``try/finally`` (or use
    :meth:`Tracer.span` instead); an unclosed handle is a leaked span and is
    flagged statically by repro-lint O101.
    """

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set(self, **attrs: Any) -> "SpanHandle":
        """Attach attributes to the span (chainable)."""
        self.record.attrs.update(attrs)
        return self

    def end(self) -> None:
        """Close and emit the span (idempotent)."""
        if self.record.end >= 0.0:
            return
        self.record.end = now()
        self._tracer._emit(self.record)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.end()


class Tracer:
    """Span recorder with a global buffer and per-task sink override.

    Disabled by default: :meth:`span`/:meth:`start_span` then return a shared
    no-op handle and :meth:`record` drops the record, so instrumented hot
    paths pay one branch.  A worker-side :func:`collect` sink activates the
    tracer for that task regardless of the global switch.
    """

    def __init__(self) -> None:
        self._enabled = False
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        #: total spans ever emitted into the global buffer (drains included)
        self.recorded = 0

    # -- switches --------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def active(self) -> bool:
        """Whether emitted spans are being kept (globally on, or a sink is set)."""
        return self._enabled or _SINK.get() is not None

    # -- emission --------------------------------------------------------------
    def _emit(self, record: SpanRecord) -> None:
        sink = _SINK.get()
        if sink is not None:
            sink.append(record)
            return
        with self._lock:
            self._spans.append(record)
            self.recorded += 1

    def _open(self, name: str, attrs: Dict[str, Any]) -> SpanRecord:
        parent = _CURRENT.get()
        trace_id = parent[0] if parent is not None else new_id()
        parent_id = parent[1] if parent is not None else None
        # end < 0 marks the span open; SpanHandle.end()/span() stamp it
        return SpanRecord(trace_id, new_id(), parent_id, name, now(), -1.0, attrs)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Any]:
        """Record one span around the ``with`` body (the primary API).

        The span parents under the ambient context and becomes the ambient
        parent for spans opened inside the body — including bodies running
        in the same thread further down the call stack.
        """
        if not self.active():
            yield _NULL
            return
        record = self._open(name, dict(attrs))
        token = _CURRENT.set((record.trace_id, record.span_id))
        try:
            yield SpanHandle(self, record)
        finally:
            _CURRENT.reset(token)
            record.end = now()
            self._emit(record)

    def start_span(self, name: str, **attrs: Any) -> Any:
        """Open a span and return its handle; close with ``handle.end()``.

        Unlike :meth:`span`, the handle does not become the ambient parent
        (its end may happen on another code path, where resetting the
        context would be unsound).  Close it in a ``try/finally`` —
        repro-lint O101 flags call sites that do not.
        """
        if not self.active():
            return _NULL
        return SpanHandle(self, self._open(name, dict(attrs)))

    def record(
        self,
        name: str,
        start: float,
        end: float,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Optional[str]:
        """Emit a complete span from timestamps observed elsewhere.

        For regions whose start and end are seen by different functions or
        threads (submit vs. harvest): nothing is ever held open, so this
        form cannot leak.  Returns the span id, or ``None`` when inactive.
        """
        if not self.active():
            return None
        record = SpanRecord(
            trace_id if trace_id is not None else new_id(),
            span_id if span_id is not None else new_id(),
            parent_id,
            name,
            float(start),
            float(end),
            dict(attrs),
        )
        self._emit(record)
        return record.span_id

    # -- context propagation ---------------------------------------------------
    @contextmanager
    def context(self, trace_id: str, span_id: str) -> Iterator[None]:
        """Make ``(trace_id, span_id)`` the ambient parent for the body."""
        token = _CURRENT.set((trace_id, span_id))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    # -- collection ------------------------------------------------------------
    def drain(self) -> List[SpanRecord]:
        """All buffered spans, clearing the buffer (export calls this)."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


@contextmanager
def collect(ctx: Optional[TraceContext]) -> Iterator[List[SpanRecord]]:
    """Activate a per-task span sink parented under ``ctx`` (worker side).

    Spans emitted inside the body land in the yielded list instead of any
    global buffer — even when the process-global tracer is disabled, which
    is the normal state of a pool worker.  The caller owns the list (a task
    wrapper converts the spans to task-relative offsets and attaches them to
    its result).
    """
    spans: List[SpanRecord] = []
    sink_token = _SINK.set(spans)
    current_token = (
        _CURRENT.set((ctx.trace_id, ctx.span_id)) if ctx is not None else None
    )
    try:
        yield spans
    finally:
        if current_token is not None:
            _CURRENT.reset(current_token)
        _SINK.reset(sink_token)


def relative_to(spans: List[SpanRecord], origin: float) -> List[SpanRecord]:
    """Copies of ``spans`` with times as offsets from ``origin``.

    Cross-process spans must travel as offsets: ``perf_counter`` origins are
    per-process, so absolute worker timestamps mean nothing to the gateway.
    """
    return [replace(s, start=s.start - origin, end=s.end - origin) for s in spans]


def rebased(spans: List[SpanRecord], anchor_end: float) -> List[SpanRecord]:
    """Task-relative spans shifted onto this process's clock.

    Aligns the latest span end with ``anchor_end`` (the harvest timestamp of
    the audit span the shipped spans parent under), so the task's span tree
    sits inside the audit span and the leading gap is the queue wait.
    """
    if not spans:
        return []
    offset = anchor_end - max(s.end for s in spans)
    return [replace(s, start=s.start + offset, end=s.end + offset) for s in spans]


#: the process-global tracer every instrumentation site shares
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER
