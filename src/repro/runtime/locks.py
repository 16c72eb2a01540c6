"""Advisory file locks for cross-process coordination on the artifact store.

The registry's single-flight fit (:class:`repro.runtime.registry.
DetectorRegistry`) and the verdict cache's cross-process single flight
(:class:`repro.runtime.verdict_cache.VerdictCache`) both need to exclude
concurrent workers that share nothing but a filesystem.  An
:class:`AdvisoryLock` is a lock *file* created with ``O_CREAT | O_EXCL`` — the
only atomic test-and-set POSIX gives us without fcntl ranges (which do not
survive NFS consistently) — holding a small JSON payload (pid, host, creation
time, random token) for debuggability and safe release.

Crash recovery is time-based: a lock file older than ``stale_seconds`` is
presumed abandoned and taken over.  Takeover renames the stale file to a
unique name before deleting it, so two waiters that both observe staleness
cannot each delete a *different* incarnation of the lock — the second rename
fails and that waiter goes back to polling.  There remains a tiny window in
which a waiter can steal a lock that was released-and-reacquired between its
staleness check and its rename; keep ``stale_seconds`` much larger than any
legitimate hold time (the default is one hour, against fits that take
minutes).  Long-running holders can call :meth:`refresh` to re-stamp the
file's mtime and push staleness out.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]

#: default seconds before an unrefreshed lock is presumed abandoned
DEFAULT_STALE_SECONDS = 3600.0
#: default seconds a waiter polls before giving up
DEFAULT_WAIT_SECONDS = 600.0


class LockTimeout(TimeoutError):
    """Raised when a lock could not be acquired within ``wait_seconds``."""


class AdvisoryLock:
    """A polling advisory file lock with stale-lock takeover.

    Usage::

        with AdvisoryLock(store_root / ".locks" / "detector-abc.lock"):
            ...  # at most one process fits this detector at a time

    ``acquire`` blocks (polling) until the lock file could be created, a stale
    holder was evicted, or ``wait_seconds`` elapsed (:class:`LockTimeout`).
    ``release`` deletes the file only when the payload still carries this
    lock's token, so releasing after a (mis-tuned) stale takeover never
    deletes another process's lock.
    """

    def __init__(
        self,
        path: PathLike,
        stale_seconds: float = DEFAULT_STALE_SECONDS,
        wait_seconds: float = DEFAULT_WAIT_SECONDS,
        poll_seconds: float = 0.05,
    ) -> None:
        self.path = Path(path)
        if stale_seconds <= 0:
            raise ValueError(f"stale_seconds must be positive, got {stale_seconds}")
        if wait_seconds < 0:
            raise ValueError(f"wait_seconds must be >= 0, got {wait_seconds}")
        self.stale_seconds = float(stale_seconds)
        self.wait_seconds = float(wait_seconds)
        self.poll_seconds = float(poll_seconds)
        self._token = uuid.uuid4().hex
        self._held = False

    # -- introspection --------------------------------------------------------
    @property
    def held(self) -> bool:
        """Whether this instance currently believes it holds the lock."""
        return self._held

    def holder(self) -> Optional[dict]:
        """The current lock-file payload, or ``None`` when unlocked/corrupt."""
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None

    def _age_seconds(self) -> Optional[float]:
        try:
            return time.time() - self.path.stat().st_mtime
        except OSError:  # released between the existence check and the stat
            return None

    # -- acquire / release ----------------------------------------------------
    def _try_create(self) -> bool:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            descriptor = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(
                descriptor,
                json.dumps(
                    {
                        "pid": os.getpid(),
                        "host": socket.gethostname(),
                        "created": time.time(),
                        "token": self._token,
                    }
                ).encode("utf-8"),
            )
        finally:
            os.close(descriptor)
        self._held = True
        return True

    def _evict_stale(self) -> None:
        """Remove the lock file if it has been held longer than ``stale_seconds``.

        The rename-to-unique-name dance makes eviction single-winner: of two
        waiters that both saw a stale lock, only one rename succeeds, and the
        loser returns to polling against whatever lock exists next.
        """
        age = self._age_seconds()
        if age is None or age < self.stale_seconds:
            return
        takeover = self.path.with_name(f"{self.path.name}.stale-{uuid.uuid4().hex[:8]}")
        try:
            os.replace(self.path, takeover)
        except OSError:
            return  # another waiter won the eviction (or the holder released)
        try:
            os.unlink(takeover)
        except OSError:
            pass

    def acquire(self) -> "AdvisoryLock":
        if self._held:
            raise RuntimeError(f"lock {self.path} is already held by this instance")
        deadline = time.monotonic() + self.wait_seconds
        while True:
            if self._try_create():
                return self
            self._evict_stale()
            if self._try_create():
                return self
            if time.monotonic() >= deadline:
                holder = self.holder() or {}
                raise LockTimeout(
                    f"could not acquire {self.path} within {self.wait_seconds}s "
                    f"(held by pid {holder.get('pid')} on {holder.get('host')})"
                )
            time.sleep(self.poll_seconds)

    def refresh(self) -> None:
        """Re-stamp the lock file's mtime so a long hold is not seen as stale."""
        if not self._held:
            raise RuntimeError(f"cannot refresh {self.path}: lock not held")
        try:
            os.utime(self.path)
        except OSError:
            pass  # evicted from under us; release() will notice the token is gone

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        holder = self.holder()
        if holder is None or holder.get("token") != self._token:
            # taken over after going stale — or unreadable, e.g. a successor
            # between its O_CREAT and its payload write.  Either way the file
            # is not provably ours: leave it for staleness eviction rather
            # than risk deleting a live successor's lock.
            return
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "AdvisoryLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self._held else "free"
        return f"AdvisoryLock({str(self.path)!r}, {state})"
