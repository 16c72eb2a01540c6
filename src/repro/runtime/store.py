"""Content-addressed, disk-backed artifact store for the pipeline's stages.

Artifacts are directories under ``<root>/<kind>/<key-hash>/`` holding ``.npz``
array blobs plus JSON metadata.  Keys are arbitrary JSON-serialisable payloads
(profile dicts, seeds, config knobs, dataset fingerprints); the store hashes
their canonical JSON form, so any change to a parameter that affects an
artefact changes its address.  Writes go to a temporary directory that is
atomically renamed into place, so a crashed or concurrent writer can never
leave a half-written artifact that a reader would mistake for a complete one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import uuid
import warnings
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.config import RuntimeConfig
from repro.datasets.base import ImageDataset
from repro.obs.metrics import MetricsRegistry, counter_property

PathLike = Union[str, Path]

#: bump when the on-disk layout of any artifact kind changes incompatibly
STORE_FORMAT_VERSION = 1


def canonical_key(payload: Any) -> str:
    """Canonical JSON encoding of a key payload (sorted keys, stable floats)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)


def key_hash(payload: Any) -> str:
    """Stable hex digest addressing one artifact."""
    return hashlib.sha256(canonical_key(payload).encode("utf-8")).hexdigest()[:20]


def dataset_fingerprint(dataset: ImageDataset) -> str:
    """Content digest of a dataset (images + labels), used inside key payloads."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.images).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    digest.update(str(dataset.num_classes).encode("utf-8"))
    return digest.hexdigest()[:20]


def state_fingerprint(arrays: Dict[str, np.ndarray]) -> str:
    """Content digest of a state dict (e.g. classifier weights).

    Cache keys derived from model *names* alone collide whenever two
    differently trained models share a name (sweep experiments reuse names
    across poison rates); fingerprinting the weights makes the key follow
    the content.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        digest.update(key.encode("utf-8"))
        digest.update(np.ascontiguousarray(arrays[key]).tobytes())
    return digest.hexdigest()[:20]


class Artifact:
    """One artifact directory: named ``.npz`` array blobs plus JSON documents."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def save_arrays(self, name: str, arrays: Dict[str, np.ndarray]) -> Path:
        # stored, not deflated: float64 weights barely compress, and zlib was
        # most of a cold stand-up's save time; ``np.load`` reads either codec
        path = self.directory / f"{name}.npz"
        np.savez(path, **arrays)
        return path

    def load_arrays(self, name: str) -> Dict[str, np.ndarray]:
        with np.load(self.directory / f"{name}.npz") as archive:
            return {key: archive[key] for key in archive.files}

    def save_json(self, name: str, payload: Any) -> Path:
        path = self.directory / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=repr))
        return path

    def load_json(self, name: str) -> Any:
        return json.loads((self.directory / f"{name}.json").read_text())

    def has(self, name: str) -> bool:
        return (self.directory / f"{name}.npz").exists() or (
            self.directory / f"{name}.json"
        ).exists()


_MANIFEST = "artifact"  # artifact.json, written into the temp dir before rename

#: per-root directory holding advisory lock files; dot-prefixed so it is
#: never mistaken for an artifact kind
LOCKS_DIRNAME = ".locks"

#: what a loader may raise on a genuinely corrupt artifact (truncated blob,
#: invalid npz/JSON, missing member): these — and only these — are treated as
#: a cache miss and rebuilt.  Anything else (TypeError, AttributeError, ...)
#: is a loader bug and propagates instead of masquerading as corruption.
CORRUPT_ARTIFACT_ERRORS = (
    OSError,
    ValueError,  # covers json.JSONDecodeError
    KeyError,
    EOFError,
    zipfile.BadZipFile,
    pickle.UnpicklingError,
)

#: sentinel distinguishing "no artifact" from an artifact whose value is None;
#: returning ``None`` for a miss would make a legitimately-``None`` artefact
#: rebuild forever.  ``MISS`` is the public name for callers of ``try_load``.
_MISS = object()
MISS = _MISS


class ArtifactStore:
    """Persistent cache mapping ``(kind, key payload)`` to artifact directories.

    A store without a root is disabled and behaves like an always-empty
    cache: ``contains`` is ``False`` and ``fetch`` always builds.
    """

    #: hit/miss tallies live in the mergeable metrics registry so the
    #: gateway's telemetry dashboard can fold them in; the attribute API and
    #: ``stats()`` shape are unchanged
    hits = counter_property("store.hits")
    misses = counter_property("store.misses")

    def __init__(self, root: Optional[PathLike]) -> None:
        self.root = Path(root) if root is not None else None
        self.enabled = self.root is not None
        self.metrics = MetricsRegistry()
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_config(cls, runtime: Optional[RuntimeConfig]) -> "ArtifactStore":
        """The store rooted at ``runtime.cache_dir`` (disabled without one)."""
        return ArtifactStore(runtime.cache_dir if runtime is not None else None)

    # -- addressing -----------------------------------------------------------
    def directory_for(self, kind: str, key: Any) -> Path:
        if self.root is None:
            raise RuntimeError("artifact store has no root directory")
        return self.root / kind / key_hash(key)

    def contains(self, kind: str, key: Any) -> bool:
        if not self.enabled:
            return False
        return (self.directory_for(kind, key) / f"{_MANIFEST}.json").exists()

    def lock_path(self, kind: str, key: Any) -> Path:
        """Advisory-lock file coordinating cross-process work on one key.

        Lives beside the artifacts (under ``<root>/.locks/``), so every
        process that shares the store root agrees on the lock's location.
        The store only names the path — callers wrap it in
        :class:`repro.runtime.locks.AdvisoryLock`.
        """
        if self.root is None:
            raise RuntimeError("artifact store has no root directory")
        return self.root / LOCKS_DIRNAME / f"{kind}-{key_hash(key)}.lock"

    # -- read / write ---------------------------------------------------------
    def open_read(self, kind: str, key: Any) -> Artifact:
        directory = self.directory_for(kind, key)
        if not (directory / f"{_MANIFEST}.json").exists():
            raise KeyError(f"no {kind!r} artifact for key hash {key_hash(key)}")
        return Artifact(directory)

    @contextmanager
    def open_write(self, kind: str, key: Any):
        """Write an artifact atomically: temp dir -> rename on success."""
        if not self.enabled:
            raise RuntimeError("cannot write to a disabled artifact store")
        final = self.directory_for(kind, key)
        final.parent.mkdir(parents=True, exist_ok=True)
        temp = final.parent / f".tmp-{final.name}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        temp.mkdir(parents=True)
        artifact = Artifact(temp)
        try:
            yield artifact
            artifact.save_json(
                _MANIFEST,
                {
                    "kind": kind,
                    "key": canonical_key(key),
                    "format_version": STORE_FORMAT_VERSION,
                },
            )
            if final.exists():
                # a concurrent writer won the race; keep its artifact
                shutil.rmtree(temp, ignore_errors=True)
            else:
                try:
                    os.replace(temp, final)
                except OSError:
                    # a concurrent writer landed between the check and the
                    # rename; first-wins, discard ours
                    shutil.rmtree(temp, ignore_errors=True)
        except BaseException:
            shutil.rmtree(temp, ignore_errors=True)
            raise

    # -- the memoisation primitive --------------------------------------------
    def try_load(self, kind: str, key: Any, load: Callable[[Artifact], Any]) -> Any:
        """The loaded artifact value, or the :data:`MISS` sentinel.

        The sentinel (rather than ``None``) signals absence, so an artefact
        whose legitimate value is ``None`` is served from cache instead of
        rebuilding forever.  A corrupt artifact (e.g. a blob deleted from
        under an intact manifest) is discarded and reported as a miss: the
        caller rebuilds instead of crashing on a half-present directory.
        Every lookup counts exactly one hit or one miss, corrupt path
        included.  Only the concrete I/O / decode errors in
        :data:`CORRUPT_ARTIFACT_ERRORS` are treated as corruption; a bug in
        the ``load`` callback itself propagates to the caller.
        """
        if not self.contains(kind, key):
            self.misses += 1
            return _MISS
        try:
            value = load(self.open_read(kind, key))
        except CORRUPT_ARTIFACT_ERRORS as exc:
            warnings.warn(
                f"discarding corrupt {kind!r} artifact {key_hash(key)}: {exc!r}; rebuilding"
            )
            shutil.rmtree(self.directory_for(kind, key), ignore_errors=True)
            self.misses += 1
            return _MISS
        self.hits += 1
        return value

    def fetch(
        self,
        kind: str,
        key: Any,
        build: Callable[[], Any],
        save: Optional[Callable[[Artifact, Any], None]] = None,
        load: Optional[Callable[[Artifact], Any]] = None,
    ) -> Any:
        """Load the artifact if present, otherwise build (and persist) it.

        ``save``/``load`` translate between the in-memory value and the
        artifact directory; omitting either makes the corresponding direction
        a no-op (the value is built but not persisted / never loaded).
        """
        if load is not None:
            value = self.try_load(kind, key, load)
            if value is not _MISS:
                return value
        else:
            self.misses += 1
        value = build()
        if save is not None and self.enabled:
            with self.open_write(kind, key) as artifact:
                save(artifact, value)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"ArtifactStore(root={str(self.root)!r}, {state}, hits={self.hits}, misses={self.misses})"
