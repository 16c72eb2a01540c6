"""Deterministic parallel execution: the runtime's one pool class.

Shadow-model training, suspicious-model training and black-box prompting are
independent per model: every task derives its own seed from the experiment
seed and a stable task identity (see :func:`repro.utils.rng.derive_seed`), so
the results are identical whether tasks run sequentially, on a thread pool or
on a process pool — only wall-clock time changes.  :meth:`WorkerPool.map`
returns results in submission order; :meth:`WorkerPool.submit` serves the
gateway's audits.

Every executor in the runtime is built by :func:`open_pool` and shut down
by :func:`close_pool`.  Besides the executor, they size OpenBLAS: ``workers``
pool workers each running a multi-threaded BLAS call would oversubscribe the
cores, so while a pool runs, BLAS gets ``max(1, cores // workers)`` threads —
never more than it had.  A thread pool caps the process-wide count until it
closes; a process pool caps each of its workers at start-up.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.config import RuntimeConfig
from repro.obs.metrics import MetricsRegistry, counter_property

T = TypeVar("T")
R = TypeVar("R")

#: OpenBLAS builds export one of these get/set pairs; the first that resolves
#: is used (numpy 2.x wheels ship the ``scipy_openblas`` build)
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

BlasFunctions = Tuple[Callable[[], int], Callable[[int], None]]


def _find_openblas() -> Optional[BlasFunctions]:
    """The loaded OpenBLAS's thread-count getter and setter, if any.

    ``None`` when no OpenBLAS is mapped into the process (another BLAS
    vendor) or ``/proc`` is unavailable.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is None or setter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return getter, setter
    return None


def blas_threads_per_worker(workers: int) -> int:
    """The OpenBLAS thread count that keeps ``workers`` pool workers within
    the cores this process may run on."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // workers)


class _BlasThreads:
    """The one owner of the process-wide OpenBLAS thread count.

    Counts live thread pools: the first to open saves the current count,
    each applies ``min(current, target)`` so a pool never raises the count,
    and the last to close restores the saved one — so pools that overlap
    and close out of order still leave the process as they found it.
    OpenBLAS is looked up when the first pool opens, never at import.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._looked_up = False
        self._functions: Optional[BlasFunctions] = None
        self._live = 0
        self._saved = 0

    def _openblas(self) -> Optional[BlasFunctions]:
        if not self._looked_up:
            self._functions = _find_openblas()
            self._looked_up = True
        return self._functions

    def acquire(self, threads: int) -> None:
        """Cap the count at ``threads`` until the matching :meth:`release`."""
        with self._lock:
            functions = self._openblas()
            if functions is None:
                return
            getter, setter = functions
            current = getter()
            if self._live == 0:
                self._saved = current
            self._live += 1
            setter(min(current, threads))

    def release(self) -> None:
        with self._lock:
            if self._functions is None:
                return
            self._live -= 1
            if self._live == 0:
                _, setter = self._functions
                setter(self._saved)

    def after_fork(self) -> None:
        # a forked child inherits no threads, hence no live thread pools —
        # and maybe a lock that a parent thread held at fork time
        self._lock = threading.Lock()
        self._live = 0


_BLAS_THREADS = _BlasThreads()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_BLAS_THREADS.after_fork)


def _cap_blas_threads(threads: int) -> None:
    """Process-pool initializer: cap this worker's OpenBLAS at ``threads``
    for the worker's lifetime.

    Module-level so spawn and forkserver workers unpickle it by qualified
    name (repro-lint L201).
    """
    _BLAS_THREADS.acquire(threads)


def open_pool(workers: int, backend: str) -> Executor:
    """A ``workers``-wide ``"thread"`` or ``"process"`` pool with OpenBLAS
    capped at :func:`blas_threads_per_worker` threads while it runs.

    The only place the runtime builds an executor (:class:`WorkerPool` calls
    it); pair every call with :func:`close_pool`, which also lifts a thread
    pool's cap.
    """
    threads = blas_threads_per_worker(workers)
    if backend == "process":
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_cap_blas_threads, initargs=(threads,)
        )
    pool = ThreadPoolExecutor(max_workers=workers)
    _BLAS_THREADS.acquire(threads)
    return pool


def close_pool(pool: Executor) -> None:
    """Drain and shut down a pool from :func:`open_pool`, then release its
    BLAS cap (process workers took theirs with them)."""
    pool.shutdown(wait=True)
    if isinstance(pool, ThreadPoolExecutor):
        _BLAS_THREADS.release()


class WorkerPool:
    """The runtime's one pool class: an ordered :meth:`map` and a counted
    :meth:`submit` over one executor.

    ``backend="thread"`` shares memory and relies on numpy releasing the GIL
    inside BLAS kernels; ``backend="process"`` achieves true parallelism at
    the cost of pickling tasks and results, so every task must be a
    module-level callable with picklable arguments (a gateway's process
    tenants submit :class:`~repro.runtime.workers.DetectorRef`-based tasks for
    exactly this reason).  ``workers=1`` or ``backend="serial"`` runs every
    task inline.

    The executor comes from :func:`open_pool` on the first task that needs
    it and lives until :meth:`close`, so OpenBLAS stays capped at
    ``cores // workers`` threads per worker in between.  A gateway keeps one
    pool for its lifetime; a detector fit or a fan-out opens one for the
    call (``with WorkerPool(...) as pool``).

    Thread-safe: concurrent first tasks race on one lock, so exactly one
    executor is ever created.
    """

    #: tasks submitted to the pool (for :meth:`stats`); backed by the
    #: mergeable metrics registry
    tasks = counter_property("pool.tasks")

    def __init__(self, workers: int = 1, backend: str = "thread") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown worker-pool backend {backend!r}")
        self.workers = int(workers)
        self.backend = backend
        self._pool: Optional[Executor] = None
        self._lock = threading.Lock()
        self._closed = False
        self.metrics = MetricsRegistry()
        self.tasks = 0

    @classmethod
    def from_config(cls, runtime: Optional[RuntimeConfig], tasks: int) -> "WorkerPool":
        """A pool for a fan-out of ``tasks`` tasks: the one ``runtime``
        describes (inline without one), never wider than ``tasks``, so the
        BLAS cap counts only workers that get work."""
        if runtime is None:
            return cls(1, "serial")
        return cls(max(1, min(runtime.workers, tasks)), runtime.backend)

    @property
    def parallel(self) -> bool:
        """Whether tasks actually run concurrently."""
        return self.backend != "serial" and self.workers > 1

    @property
    def started(self) -> bool:
        """Whether the pool has been submitted a task yet."""
        with self._lock:
            return self.tasks > 0

    def _open(self) -> Optional[Executor]:
        """The executor, opened on first need; ``None`` when tasks run inline.

        Raises once the pool is closed.  The caller holds ``self._lock``.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self.parallel and self._pool is None:
            self._pool = open_pool(self.workers, self.backend)
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving input order in the output.

        A plain loop when the pool is not parallel or there is one item;
        otherwise the items run on the executor, and the first task that
        raises cancels the ones not yet started and re-raises here.
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [fn(item) for item in items]
        with self._lock:
            pool = self._open()
        return list(pool.map(fn, items))

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Count one task and run it on the pool.

        A non-parallel pool runs the task inline and returns an
        already-resolved future, with any task exception set on it exactly
        as a real pool would.
        """
        with self._lock:
            pool = self._open()
            self.tasks += 1
        if pool is not None:
            return pool.submit(fn, *args)
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # surfaced via future.result(), like a pool;
            # KeyboardInterrupt/SystemExit propagate — a real pool's caller
            # would see those too, never a worker.  The broad catch is the
            # contract here (any task exception must reach the future), which
            # repro-lint L302 recognises by the set_exception call below
            future.set_exception(exc)
        return future

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "backend": self.backend,
                "workers": self.workers,
                "started": self.tasks > 0,
                "tasks": self.tasks,
            }

    def close(self) -> None:
        """Drain outstanding tasks and shut the pool down (idempotent)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            close_pool(pool)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(workers={self.workers}, backend={self.backend!r}, "
            f"tasks={self.tasks})"
        )
