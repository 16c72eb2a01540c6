"""Deterministic random number generation helpers.

Every stochastic component in the library (dataset synthesis, model
initialisation, poisoning, prompt optimisation, defenses) takes either a seed
or an already-constructed :class:`numpy.random.Generator`.  Centralising the
conversion here keeps experiments reproducible: a single integer seed at the
top of an experiment fans out into independent generators for each component.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def normalize_seed(seed: SeedLike) -> int:
    """Collapse any :data:`SeedLike` value into a concrete integer seed.

    ``None`` maps to 0, integers pass through unchanged, and a generator
    contributes one draw from its stream (so distinct generator states yield
    distinct — but still reproducible — child seeds instead of silently
    collapsing to 0).
    """
    if seed is None:
        return 0
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**31 - 1))
    raise TypeError(f"cannot derive a seed from {type(seed).__name__}")


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed, generator or ``None``.

    Passing an existing generator returns it unchanged so callers can share a
    stream; passing ``None`` produces a non-deterministic generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = new_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def _stable_hash(salt) -> int:
    """Process-independent 63-bit hash of a salt value.

    ``hash()`` is randomized per interpreter process for strings, which would
    make derived seeds — and therefore every artifact produced from them —
    irreproducible across runs.  Hashing the ``repr`` with blake2b keeps the
    derivation stable for the int/str/float/tuple salts used in the library.
    """
    digest = hashlib.blake2b(repr(salt).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2**63)


def derive_seed(seed: SeedLike, *salts: Iterable) -> int:
    """Derive a stable child seed from a parent seed and hashable salts.

    Used when a component needs a reproducible seed that depends on, e.g., the
    shadow-model index.  The derivation is stable across interpreter processes
    (no reliance on randomized ``hash()``), which is what allows the artifact
    store to reuse trained models between runs.
    """
    base = normalize_seed(seed)
    mask = (1 << 64) - 1
    h = (int(base) * 0x9E3779B97F4A7C15) & mask
    for salt in salts:
        h = ((h ^ _stable_hash(salt)) * 0xC2B2AE3D27D4EB4F) & mask
    return int(h % (2**31 - 1))


class RngMixin:
    """Mixin that stores a generator created from a flexible ``seed`` argument."""

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = new_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        return self._rng
