"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, new_rng


def kaiming_normal(shape, fan_in: int, rng: SeedLike = None) -> np.ndarray:
    """He-normal initialisation suited to ReLU networks."""
    rng = new_rng(rng)
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)
