"""Saving and loading model state dictionaries as ``.npz`` archives.

Archives are written stored (``np.savez``), not deflated: float64 weights
barely compress.  ``np.load`` reads both codecs, so archives written
compressed by earlier versions still load.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.nn.module import Module

PathLike = Union[str, Path]


def save_state_dict(module: Module, path: PathLike) -> Path:
    """Serialize a module's parameters and buffers to an uncompressed ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    state = module.state_dict()
    # npz keys cannot contain '/' reliably across loaders; dots are fine.
    np.savez(path, **state)
    return path


def load_npz_state(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a raw state dictionary from disk."""
    with np.load(Path(path)) as archive:
        return {key: archive[key] for key in archive.files}


def load_state_dict(module: Module, path: PathLike) -> Module:
    """Load parameters saved by :func:`save_state_dict` into ``module`` in-place."""
    module.load_state_dict(load_npz_state(path))
    return module
