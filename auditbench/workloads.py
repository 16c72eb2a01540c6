"""The benchmark's workloads: tenants, seeded uploads and submission order.

Everything a run submits derives from its ``--seed``: the datasets, the base
vendor models, the per-upload weight noise and the zipf draws.  The detector
spec seed stays 0, so a seed changes the inputs, never the detector recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.config import ExperimentProfile, get_profile
from repro.datasets.base import ImageDataset
from repro.datasets.registry import load_dataset
from repro.models.classifier import ImageClassifier
from repro.models.registry import build_classifier
from repro.runtime.registry import DetectorSpec
from repro.utils.rng import derive_seed

from auditbench import WORKERS

PROFILE = "tiny"
#: BPROM's external clean prompting dataset D_T, shared by every tenant
TARGET_DATASET = "stl10"
#: closed-loop client: one thread keeps this many submissions outstanding;
#: it equals the reference machine's core count and the pool's worker count
CONCURRENCY = WORKERS
MAX_IN_FLIGHT = WORKERS
#: vendor models trained per tenant; upload j is a noisy copy of base j % 4
BASE_MODELS = 4
BASE_EPOCHS = 1
#: N(0, NOISE_STD) noise on every float parameter gives each upload its own
#: weight fingerprint while the audit cost stays fixed (BPROM issues a fixed
#: number of queries per audit)
NOISE_STD = 1e-3
#: uploads per tenant re-inspected serially after the timed phase
REINSPECT = 6
#: every workload harvests at least this many timed verdicts, so p90 has at
#: least ten samples beyond it
MIN_VERDICTS = 100


@dataclass(frozen=True)
class TenantSpec:
    """One gateway tenant: a detector architecture on a suspicious task."""

    name: str
    architecture: str
    task: str


CNN = TenantSpec("cnn", "resnet18", "cifar10")
MLP = TenantSpec("mlp", "mlp", "svhn")


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each is in the benchmark is in BENCHMARK.json."""

    name: str
    tenants: Tuple[TenantSpec, ...]
    #: timed stand-ups per run; ``setup_s`` is their median
    setups: int
    #: cold: every stand-up fits into an empty store and every submission is
    #: a distinct upload.  fleet: an untimed fit fills the store, the timed
    #: stand-ups load from it, and traffic is zipf-redundant in whole epochs
    fleet: bool = False
    #: fleet only: distinct uploads per epoch (split evenly across tenants)
    distinct: int = 0
    #: fleet only: submissions per epoch; every distinct upload appears at
    #: least once, the rest are zipf draws over popularity rank
    epoch: int = 0
    zipf_s: float = 1.1
    min_verdicts: int = MIN_VERDICTS

    @property
    def block(self) -> int:
        """Submissions are stopped only on a multiple of this (whole epochs),
        so the cold share — hence ``queries_per_verdict`` — is exact."""
        return self.epoch if self.fleet else 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold-cnn",
            tenants=(CNN,),
            setups=3,
        ),
        Workload(
            name="cold-mlp",
            tenants=(MLP,),
            setups=9,
        ),
        Workload(
            name="fleet-zipf",
            tenants=(MLP, CNN),
            setups=9,
            fleet=True,
            distinct=16,
            epoch=400,
            min_verdicts=400,
        ),
    )
}


def upload_key(tenant: TenantSpec, index: int) -> str:
    return f"{tenant.name}-{index:05d}"


@dataclass
class TenantData:
    """A tenant's datasets and trained base vendor models."""

    spec: TenantSpec
    train: ImageDataset
    #: the suspicious task's test split: the defender's reserved clean D_S
    reserved: ImageDataset
    base_states: List[Dict[str, np.ndarray]]
    param_names: Tuple[str, ...]
    seed: int
    profile: ExperimentProfile

    def detector_spec(self) -> DetectorSpec:
        return DetectorSpec(
            defense="bprom", profile=self.profile, architecture=self.spec.architecture, seed=0
        )

    def _blank(self, name: str) -> ImageClassifier:
        return build_classifier(
            self.spec.architecture,
            self.train.num_classes,
            image_size=self.profile.image_size,
            rng=0,
            name=name,
        )

    def upload(self, index: int) -> ImageClassifier:
        """Upload ``index``: base ``index % 4`` plus seeded weight noise."""
        rng = np.random.default_rng(derive_seed(self.seed, "upload", self.spec.name, index))
        state = dict(self.base_states[index % len(self.base_states)])
        for name in self.param_names:
            state[name] = state[name] + rng.normal(0.0, NOISE_STD, state[name].shape)
        model = self._blank(upload_key(self.spec, index))
        model.load_state_dict(state)
        model.model.eval()
        return model


def load_inputs(
    workload: Workload, seed: int
) -> Tuple[Tuple[ImageDataset, ImageDataset], Dict[str, TenantData]]:
    """The target datasets and every tenant's data, all derived from ``seed``."""
    profile = get_profile(PROFILE)
    target = load_dataset(TARGET_DATASET, profile, seed=seed)
    base_config = replace(profile.classifier, epochs=BASE_EPOCHS)
    tenants: Dict[str, TenantData] = {}
    for tenant in workload.tenants:
        train, test = load_dataset(tenant.task, profile, seed=seed)
        states = []
        for index in range(BASE_MODELS):
            model = build_classifier(
                tenant.architecture,
                train.num_classes,
                image_size=profile.image_size,
                rng=derive_seed(seed, "base-init", tenant.name, index),
                name=f"{tenant.name}-base-{index}",
            )
            model.fit(train, base_config, rng=derive_seed(seed, "base-fit", tenant.name, index))
            states.append(model.state_dict())
        names = tuple(name for name, _ in model.model.named_parameters())
        tenants[tenant.name] = TenantData(
            spec=tenant,
            train=train,
            reserved=test,
            base_states=states,
            param_names=names,
            seed=seed,
            profile=profile,
        )
    return target, tenants


@dataclass(frozen=True)
class Submission:
    index: int
    tenant: TenantSpec
    upload: int

    @property
    def key(self) -> str:
        return upload_key(self.tenant, self.upload)


def _zipf_probabilities(count: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** -float(exponent)
    return weights / weights.sum()


def submissions(workload: Workload, seed: int) -> Iterator[Submission]:
    """The workload's endless submission order; the client decides when to stop.

    Cold: upload 0, 1, 2, ... round-robin over the tenants.  Fleet: epoch e
    holds ``distinct`` fresh uploads (popularity rank r goes to tenant
    r % tenants), each once, plus ``epoch - distinct`` zipf draws over rank,
    shuffled.  Fresh uploads per epoch keep the cold count per epoch exact.
    """
    tenants = workload.tenants
    index = 0
    if not workload.fleet:
        upload = 0
        while True:
            for tenant in tenants:
                yield Submission(index, tenant, upload)
                index += 1
            upload += 1
    per_tenant = workload.distinct // len(tenants)
    probabilities = _zipf_probabilities(workload.distinct, workload.zipf_s)
    epoch = 0
    while True:
        rng = np.random.default_rng(derive_seed(seed, "fleet-epoch", epoch))
        draws = rng.choice(workload.distinct, size=workload.epoch - workload.distinct, p=probabilities)
        ranks = np.concatenate([np.arange(workload.distinct), draws])
        rng.shuffle(ranks)
        for rank in ranks.tolist():
            tenant = tenants[rank % len(tenants)]
            yield Submission(index, tenant, epoch * per_tenant + rank // len(tenants))
            index += 1
        epoch += 1
