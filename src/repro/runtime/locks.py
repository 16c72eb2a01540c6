"""Advisory file locks for cross-process coordination on the artifact store.

:meth:`repro.runtime.store.ArtifactStore.fetch` takes one on every miss it
builds into a store, so workers that share nothing but a filesystem build each
artifact once (fitted detectors, fit stages, experiment pools and cached
verdicts alike).  An :class:`AdvisoryLock` is a lock *file* created with
``O_CREAT | O_EXCL`` — the only atomic test-and-set POSIX gives us without
fcntl ranges (which do not survive NFS consistently) — holding a small JSON
payload (pid, host, creation time, random token) for debuggability and safe
release.

A live holder never goes stale: every lock a process holds is re-stamped
(its file's mtime) every ``stale_seconds / 4`` by that process's one daemon
refresher thread, however long the hold lasts, so only a lock whose holder
died (or stopped running) ages.  Crash recovery is time-based: a lock file
older than ``stale_seconds`` is presumed abandoned and taken over.  Takeover
renames the stale file to a unique name before deleting it, so two waiters
that both observe staleness cannot each delete a *different* incarnation of
the lock — the second rename fails and that waiter goes back to polling.
There remains a tiny window in which a waiter can steal a lock that was
released-and-reacquired between its staleness check and its rename; it opens
only while a lock on that path is stale, that is, after a holder died.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Optional, Union

PathLike = Union[str, Path]

#: default seconds before an unrefreshed lock is presumed abandoned
DEFAULT_STALE_SECONDS = 3600.0
#: default seconds a waiter polls before giving up
DEFAULT_WAIT_SECONDS = 600.0


class LockTimeout(TimeoutError):
    """Raised when a lock could not be acquired within ``wait_seconds``."""


class _Refresher:
    """The process's one daemon thread that re-stamps every held lock.

    A lock is added at acquire and discarded at release, and it is re-stamped
    once ``stale_seconds / 4`` has passed since its last stamp.  Stamps run
    under the condition that :meth:`discard` takes, so once a release has
    discarded its lock, the refresher never touches that file again.  The
    thread starts with the first held lock and never exits, so a process runs
    at most one, however many locks it takes.  It wakes when the next held
    lock falls due, and at least every ``DEFAULT_STALE_SECONDS / 4``, so a
    lock with the default period is added without waking it; only a lock
    that falls due sooner does.
    """

    def __init__(self) -> None:
        self._wake = threading.Condition()
        #: held locks by identity; a dict, not a set, so the stamping order
        #: is the acquisition order
        self._held: Dict[int, "AdvisoryLock"] = {}
        self._thread: Optional[threading.Thread] = None
        #: monotonic time at which the thread next wakes by itself
        self._wakes_at = 0.0

    def add(self, lock: "AdvisoryLock") -> None:
        with self._wake:
            self._held[id(lock)] = lock
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="advisory-lock-refresher", daemon=True
                )
                self._thread.start()
            elif lock._due() < self._wakes_at:
                self._wake.notify()

    def discard(self, lock: "AdvisoryLock") -> None:
        with self._wake:
            self._held.pop(id(lock), None)

    def _run(self) -> None:
        with self._wake:
            while True:
                now = time.monotonic()
                wakes_at = now + DEFAULT_STALE_SECONDS / 4.0
                for lock in self._held.values():
                    if lock._due() <= now:
                        lock._stamp()
                    wakes_at = min(wakes_at, lock._due())
                self._wakes_at = wakes_at
                self._wake.wait(wakes_at - now)

    def after_fork(self) -> None:
        # a forked child holds none of its parent's locks and runs none of
        # its threads, and may inherit the condition's lock mid-stamp
        self._wake = threading.Condition()
        self._held = {}
        self._thread = None
        self._wakes_at = 0.0


_REFRESHER = _Refresher()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_REFRESHER.after_fork)


class AdvisoryLock:
    """A polling advisory file lock with stale-lock takeover.

    Usage (as :meth:`~repro.runtime.store.ArtifactStore.fetch` does)::

        with AdvisoryLock(store.lock_path(kind, key)):
            ...  # at most one process builds this artifact at a time

    ``acquire`` blocks (polling) until the lock file could be created, a stale
    holder was evicted, or ``wait_seconds`` elapsed (:class:`LockTimeout`).
    ``release`` deletes the file only when the payload still carries this
    lock's token, so releasing after a stale takeover (the holder stalled for
    longer than ``stale_seconds``) never deletes another process's lock.
    While held, the lock is kept fresh by the process's refresher thread.
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
        #: monotonic time of the last stamp of the lock file's mtime
        self._stamped = 0.0

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
        self._stamped = time.monotonic()
        _REFRESHER.add(self)
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

    def _due(self) -> float:
        """Monotonic time at which the refresher next re-stamps this lock."""
        return self._stamped + self.stale_seconds / 4.0

    def _stamp(self) -> None:
        """Re-stamp the lock file's mtime; never raises (the refresher calls it)."""
        self._stamped = time.monotonic()
        try:
            os.utime(self.path)
        except OSError:
            pass  # evicted from under us; release() will notice the token is gone

    def refresh(self) -> None:
        """Re-stamp the lock file's mtime now, so a long hold is not seen as
        stale (the refresher does this every ``stale_seconds / 4``)."""
        if not self._held:
            raise RuntimeError(f"cannot refresh {self.path}: lock not held")
        self._stamp()

    def release(self) -> None:
        if not self._held:
            return
        _REFRESHER.discard(self)
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
