"""Experiment profiles controlling the scale of every reproduction experiment.

The paper trains full-size ResNet18 / MobileNetV2 models on CIFAR-10-scale
datasets using an RTX 4090.  This reproduction runs on a single CPU core, so
every experiment is parameterised by an :class:`ExperimentProfile` that scales
image sizes, dataset sizes, training epochs and shadow-model counts.  Three
presets are provided:

* ``FAST`` — used by the unit/integration tests; everything finishes in
  seconds.
* ``BENCH`` — used by the pytest-benchmark harness; large enough that the
  paper's qualitative trends are visible, small enough that the full benchmark
  suite completes on one core.
* ``PAPER`` — the closest feasible approximation of the paper's settings; it
  is not run in CI but is available for anyone with more compute.

The relative ordering of results (which defense wins, how AUROC moves with
trigger size / poison rate / shadow-model count) is what the reproduction
targets; absolute values differ because the substrate is scaled down.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for training one classifier."""

    epochs: int = 14
    batch_size: int = 32
    learning_rate: float = 1e-2
    weight_decay: float = 1e-4
    optimizer: str = "adam"
    label_smoothing: float = 0.0


@dataclass(frozen=True)
class PromptConfig:
    """Hyper-parameters for visual-prompt optimisation."""

    #: side length of the prompted (source-domain) canvas
    source_size: int = 16
    #: side length to which target-domain images are resized before padding
    inner_size: int = 10
    #: white-box prompt training epochs (shadow models)
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 5e-2
    #: black-box optimiser used for the suspicious model ("cma-es" | "spsa" | "random")
    blackbox_optimizer: str = "cma-es"
    #: number of black-box optimisation iterations
    blackbox_iterations: int = 30
    #: CMA-ES population size (None -> 4 + 3*log(dim) heuristic, capped)
    blackbox_population: int | None = 8
    #: evaluate each generation's whole candidate population as one megabatch
    #: query (True, the fast path) or one query per candidate (False, the
    #: sequential fallback); both paths produce equivalent optimisation runs
    blackbox_batched: bool = True


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale knobs for a full BPROM experiment."""

    name: str = "fast"
    image_size: int = 16
    channels: int = 3
    #: per-class sample counts for the synthetic datasets
    train_per_class: int = 30
    test_per_class: int = 15
    #: how many classes to keep for the "many-class" datasets (GTSRB, CIFAR-100,
    #: Tiny-ImageNet, ImageNet stand-ins); the small datasets keep their native 10.
    max_classes: int = 12
    #: fraction of the suspicious-task test set reserved as the defender's D_S
    reserved_fraction: float = 0.10
    #: number of clean / backdoored shadow models (n and M - n in the paper)
    clean_shadow_models: int = 3
    backdoor_shadow_models: int = 3
    #: number of clean / backdoored suspicious models used for AUROC evaluation
    clean_suspicious_models: int = 4
    backdoor_suspicious_models: int = 4
    #: number of query samples q used to build the meta-feature vector
    query_samples: int = 8
    #: meta-classifier: number of random-forest trees
    meta_trees: int = 50
    classifier: TrainingConfig = field(default_factory=TrainingConfig)
    prompt: PromptConfig = field(default_factory=PromptConfig)

    def with_overrides(self, **kwargs) -> "ExperimentProfile":
        """Return a copy of this profile with selected fields replaced."""
        return replace(self, **kwargs)

    @property
    def total_shadow_models(self) -> int:
        return self.clean_shadow_models + self.backdoor_shadow_models


FAST = ExperimentProfile(
    name="fast",
    train_per_class=24,
    test_per_class=12,
    max_classes=8,
    clean_shadow_models=2,
    backdoor_shadow_models=2,
    clean_suspicious_models=3,
    backdoor_suspicious_models=3,
    query_samples=6,
    meta_trees=25,
    classifier=TrainingConfig(epochs=14, batch_size=32, learning_rate=1e-2),
    prompt=PromptConfig(epochs=15, blackbox_iterations=15, blackbox_population=6),
)

BENCH = ExperimentProfile(
    name="bench",
    train_per_class=30,
    test_per_class=15,
    max_classes=12,
    clean_shadow_models=3,
    backdoor_shadow_models=3,
    clean_suspicious_models=4,
    backdoor_suspicious_models=4,
    query_samples=8,
    meta_trees=60,
    classifier=TrainingConfig(epochs=14, batch_size=32, learning_rate=1e-2),
    prompt=PromptConfig(epochs=20, blackbox_iterations=20, blackbox_population=8),
)

PAPER = ExperimentProfile(
    name="paper",
    image_size=32,
    train_per_class=400,
    test_per_class=100,
    max_classes=43,
    clean_shadow_models=10,
    backdoor_shadow_models=10,
    clean_suspicious_models=30,
    backdoor_suspicious_models=30,
    query_samples=16,
    meta_trees=10_000,
    classifier=TrainingConfig(epochs=60, batch_size=128, learning_rate=1e-3),
    prompt=PromptConfig(
        source_size=32,
        inner_size=22,
        epochs=50,
        blackbox_iterations=300,
        blackbox_population=16,
    ),
)

#: minimal profile for smoke-level benchmark runs on very constrained hardware
TINY = ExperimentProfile(
    name="tiny",
    train_per_class=16,
    test_per_class=8,
    max_classes=6,
    clean_shadow_models=1,
    backdoor_shadow_models=1,
    clean_suspicious_models=2,
    backdoor_suspicious_models=2,
    query_samples=4,
    meta_trees=15,
    classifier=TrainingConfig(epochs=8, batch_size=32, learning_rate=1e-2),
    prompt=PromptConfig(epochs=8, blackbox_iterations=8, blackbox_population=4),
)

PROFILES: Dict[str, ExperimentProfile] = {
    "tiny": TINY,
    "fast": FAST,
    "bench": BENCH,
    "paper": PAPER,
}


def get_profile(name: str) -> ExperimentProfile:
    """Look up a profile preset by name."""
    try:
        return PROFILES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}"
        ) from exc


def profile_to_dict(profile: ExperimentProfile) -> Dict:
    """JSON-serialisable representation of a profile (used in artifact keys)."""
    return asdict(profile)


def profile_from_dict(payload: Dict) -> ExperimentProfile:
    """Inverse of :func:`profile_to_dict`."""
    payload = dict(payload)
    payload["classifier"] = TrainingConfig(**payload["classifier"])
    payload["prompt"] = PromptConfig(**payload["prompt"])
    return ExperimentProfile(**payload)


# ---------------------------------------------------------------------------
# runtime configuration
# ---------------------------------------------------------------------------

def _env_int(name: str, default: Optional[int]) -> Optional[int]:
    """An integer environment variable; unset/empty yields ``default``.

    Raises a ``ValueError`` that names the variable on a malformed value, so a
    typo in a CI matrix fails with an actionable message rather than a bare
    ``invalid literal for int()``.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


_RUNTIME_BACKENDS = ("thread", "process")
#: accepted values for RuntimeConfig.precision / REPRO_PRECISION: the training
#: dtype of shadow pools and detectors.  "float64" is the reference tier
#: (bit-identical to every run before the precision split existed);
#: "float32" halves memory traffic on the conv-bound CNN pools and is
#: equivalent under loosened tolerances (detector AUROC/verdict parity, not
#: byte parity) — see ShadowModelFactory
PRECISIONS = ("float64", "float32")


def resolve_precision(explicit: Optional[str] = None) -> str:
    """Collapse an optional explicit precision to a tier.

    ``None`` is the ``"float64"`` reference tier.  The environment is never
    consulted here: ``REPRO_PRECISION`` reaches the code only through
    :meth:`RuntimeConfig.from_env`, so a component built without a precision
    trains in the tier its cache keys assume.  Raises a :class:`ValueError`
    on an unknown tier.
    """
    if explicit is None:
        return "float64"
    value = str(explicit).lower()
    if value not in PRECISIONS:
        raise ValueError(f"precision must be one of {PRECISIONS}, got {value!r}")
    return value


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution knobs for the pipeline runtime (:mod:`repro.runtime`).

    Orthogonal to :class:`ExperimentProfile`: the profile decides *what* is
    trained, the runtime config decides *how* — how many workers fan out the
    shadow/suspicious training and prompting, and whether expensive artefacts
    are persisted to disk so they survive a process restart.
    """

    #: number of concurrent workers for the embarrassingly-parallel stages
    #: and for an :class:`~repro.runtime.gateway.AuditGateway`'s shared
    #: worker pool; 1 means fully sequential execution.  It also sizes BLAS:
    #: while a pool runs, OpenBLAS gets ``max(1, cores // workers)`` threads
    #: per worker, never more than it had (see :func:`~repro.runtime.executor.open_pool`)
    workers: int = 1
    #: "thread" (shares memory, relies on numpy releasing the GIL) or
    #: "process" (true parallelism, pays pickling overhead; a gateway's
    #: process workers hydrate detectors from the shared store, so its pool
    #: requires a persistent store); with ``workers=1`` either runs inline
    backend: str = "thread"
    #: root directory of the persistent artifact store; ``None`` disables
    #: disk caching entirely
    cache_dir: Optional[str] = None
    #: training dtype tier for shadow pools and detectors ("float64" |
    #: "float32"); every artifact-store key derived from a non-default tier
    #: carries the precision, so the tiers never share cache entries
    precision: str = "float64"
    #: memoise audit verdicts by (model fingerprint, detector digest,
    #: precision) in a :class:`~repro.runtime.verdict_cache.VerdictCache`;
    #: off by default — a warm entry silently skips re-inspection, which
    #: callers probing per-submission behaviour must opt in to
    verdict_cache: bool = False
    #: enable span tracing and the telemetry sub-dashboard in
    #: ``gateway.stats()``; off by default — the disabled tracer is a shared
    #: no-op, so instrumented paths pay one branch, and turning it on never
    #: perturbs verdict bit-identity (ids come from a counter, not RNG)
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in _RUNTIME_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; available: {_RUNTIME_BACKENDS}"
            )
        object.__setattr__(self, "precision", str(self.precision).lower())
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def with_overrides(self, **kwargs) -> "RuntimeConfig":
        return replace(self, **kwargs)

    @classmethod
    def from_env(cls) -> "RuntimeConfig":
        """Build a runtime config from the ``REPRO_*`` environment variables
        (benchmark/CI convenience): ``REPRO_WORKERS``, ``REPRO_BACKEND``,
        ``REPRO_CACHE_DIR``, ``REPRO_PRECISION``, ``REPRO_VERDICT_CACHE`` and
        ``REPRO_TELEMETRY``.
        ``REPRO_VERDICT_CACHE=1`` turns verdict memoisation on (any other
        value leaves it off); ``REPRO_TELEMETRY=1`` turns span tracing on the
        same way.  A malformed ``REPRO_WORKERS`` raises a :class:`ValueError`
        naming the variable instead of a bare parse error.
        """
        return cls(
            workers=_env_int("REPRO_WORKERS", 1),
            backend=os.environ.get("REPRO_BACKEND", "thread"),
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
            precision=os.environ.get("REPRO_PRECISION") or "float64",
            verdict_cache=os.environ.get("REPRO_VERDICT_CACHE", "0") == "1",
            telemetry=os.environ.get("REPRO_TELEMETRY", "0") == "1",
        )


DEFAULT_RUNTIME = RuntimeConfig()
