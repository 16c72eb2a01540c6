"""A small staged-pipeline engine with per-stage artifact caching.

A pipeline is an ordered list of named stages (BPROM's graph is
``shadow -> prompt -> meta``, with ``inspect`` fanning out per suspicious
model at serve time).  Each stage consumes the results of earlier stages and
may declare an artifact binding — a ``(kind, key, save, load)`` quadruple —
in which case the engine consults the :class:`~repro.runtime.store.ArtifactStore`
before building and persists the result after building.  Stage reports record
what was cached and how long each stage took, which the benchmarks use to
attribute wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.obs.clock import now
from repro.obs.trace import get_tracer
from repro.runtime.store import MISS, Artifact, ArtifactStore


@dataclass
class StageReport:
    """Execution record of one pipeline stage."""

    name: str
    cached: bool
    seconds: float


@dataclass
class Stage:
    """One node of the pipeline graph.

    ``build`` receives the dict of prior stage results.  When ``kind``/``key``
    and both codecs are provided the stage is cacheable; ``load`` additionally
    receives the prior results so reconstruction can reattach in-memory
    objects (e.g. prompts reattach to the shadow classifiers loaded by the
    previous stage).
    """

    name: str
    build: Callable[[Dict[str, Any]], Any]
    kind: Optional[str] = None
    key: Optional[Any] = None
    save: Optional[Callable[[Artifact, Any], None]] = None
    load: Optional[Callable[[Artifact, Dict[str, Any]], Any]] = None

    @property
    def cacheable(self) -> bool:
        return (
            self.kind is not None
            and self.key is not None
            and self.save is not None
            and self.load is not None
        )


class StagedPipeline:
    """Runs stages in order, caching each cacheable stage in the store."""

    def __init__(self, stages: List[Stage], store: Optional[ArtifactStore] = None) -> None:
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.stages = list(stages)
        self.store = store if store is not None else ArtifactStore(None)
        self.reports: List[StageReport] = []

    def run(self) -> Dict[str, Any]:
        """Execute every stage; returns the mapping stage name -> result."""
        results: Dict[str, Any] = {}
        self.reports = []
        tracer = get_tracer()
        for stage in self.stages:
            with tracer.span(f"fit.{stage.name}") as span:
                start = now()
                cached = False
                value = MISS
                if stage.cacheable:
                    value = self.store.try_load(
                        stage.kind, stage.key, lambda artifact: stage.load(artifact, results)
                    )
                    cached = value is not MISS
                if not cached:
                    value = stage.build(results)
                    if stage.cacheable and self.store.enabled:
                        with self.store.open_write(stage.kind, stage.key) as artifact:
                            stage.save(artifact, value)
                results[stage.name] = value
                span.set(cached=cached)
                self.reports.append(StageReport(stage.name, cached, now() - start))
        return results
