"""Deterministic parallel execution for the embarrassingly-parallel stages.

Shadow-model training, suspicious-model training and black-box prompting are
independent per model: every task derives its own seed from the experiment
seed and a stable task identity (see :func:`repro.utils.rng.derive_seed`), so
the results are identical whether tasks run sequentially, on a thread pool or
on a process pool — only wall-clock time changes.  Results are always returned
in submission order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.config import RuntimeConfig

T = TypeVar("T")
R = TypeVar("R")


class ParallelExecutor:
    """Ordered map over independent tasks with a configurable worker pool.

    ``backend="thread"`` shares memory and relies on numpy releasing the GIL
    inside BLAS kernels; ``backend="process"`` achieves true parallelism at
    the cost of pickling tasks and results (every task function must be a
    module-level callable with picklable arguments).  ``workers=1`` or
    ``backend="serial"`` degrade to a plain loop, which is also the fallback
    for single-item workloads.
    """

    def __init__(self, workers: int = 1, backend: str = "thread") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown executor backend {backend!r}")
        self.workers = int(workers)
        self.backend = backend

    @classmethod
    def from_config(cls, runtime: Optional[RuntimeConfig]) -> "ParallelExecutor":
        if runtime is None:
            return cls(1, "serial")
        return cls(runtime.workers, runtime.backend)

    @property
    def parallel(self) -> bool:
        return self.workers > 1 and self.backend != "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving input order in the output."""
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [fn(item) for item in items]
        pool_cls = ThreadPoolExecutor if self.backend == "thread" else ProcessPoolExecutor
        with pool_cls(max_workers=min(self.workers, len(items))) as pool:
            return list(pool.map(fn, items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(workers={self.workers}, backend={self.backend!r})"
