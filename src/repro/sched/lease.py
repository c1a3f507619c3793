"""Atomic shard leases: work-stealing across whole scheduler processes.

PR 5's crash recovery handles a *worker* process dying under one
scheduler; the lease layer generalizes that to the death of a whole
scheduler process in a multi-scheduler sweep (``repro.sched.fabric``).
N independent schedulers share a lease directory; each task shard is
guarded by one lease file and executed by whoever holds it.

Protocol
--------
* **Acquire**: create ``<root>/<name>.lease`` with ``O_CREAT|O_EXCL`` —
  the POSIX-atomic "exactly one creator wins" primitive (works on local
  and NFS v3+ filesystems without flock).
* **Expiry**: the file carries ``expires`` (unix time, ``ttl`` seconds
  out) refreshed by ``renew``.  A scheduler that dies stops renewing;
  once the clock passes ``expires`` any peer may *steal*.
* **Steal**: write a fresh lease to a temp file, ``os.replace`` it over
  the expired one, then read it back and verify the embedded random
  nonce — the replace is atomic, and the read-back arbitrates the race
  where two peers steal the same expired lease in the same instant.
* **Release**: unlink, but only after verifying ownership.

The protocol is advisory and crash-safe rather than strictly mutual —
a clock-skewed or paused owner may overlap with its thief for one shard.
That is *correct by construction* here: shard execution is idempotent
(results are content-addressed by config key, journal duplicates are
bit-identical and last-write-wins), so the lease only prevents wasted
work, never corruption.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

__all__ = ["ShardLeases", "LEASE_VERSION"]

#: Lease file format version.
LEASE_VERSION = 1


def _nonce() -> str:
    return os.urandom(8).hex()


class ShardLeases:
    """Lease files for named shards under one directory.

    Parameters
    ----------
    root:
        Lease directory, shared by every participating scheduler.
    owner:
        This scheduler's identity (defaults to ``host:pid``); recorded in
        every lease it takes.
    ttl:
        Seconds a lease stays valid without a ``renew``.  Must comfortably
        exceed the renew cadence but stay small enough that a dead peer's
        shard is handed over quickly.
    """

    def __init__(self, root: str, owner: Optional[str] = None, ttl: float = 30.0):
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.root = str(root)
        self.owner = owner or f"{os.uname().nodename}:{os.getpid()}"
        self.ttl = float(ttl)
        os.makedirs(self.root, exist_ok=True)
        #: shard name -> nonce of the lease this instance holds
        self._held: Dict[str, str] = {}

    # -- plumbing -------------------------------------------------------------
    def _path(self, name: str) -> str:
        return os.path.join(self.root, f"{name}.lease")

    def _doc(self, nonce: str) -> Dict[str, Any]:
        return {
            "v": LEASE_VERSION,
            "owner": self.owner,
            "nonce": nonce,
            "expires": time.time() + self.ttl,
        }

    def _read(self, name: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(name), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return doc if isinstance(doc, dict) else None

    def _write_over(self, name: str, nonce: str) -> None:
        """Atomically replace a lease file (steal/renew path).

        A failed write (ENOSPC, EIO, ...) removes its temp file before the
        error propagates, so a failing lease directory does not fill up
        with ``.tmp`` leftovers.
        """
        tmp = self._path(name) + f".{self.owner.replace('/', '_')}.{nonce}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self._doc(nonce), fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._path(name))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _verify(self, name: str, nonce: str) -> bool:
        """Read the lease back: did *our* write survive the race?"""
        doc = self._read(name)
        won = bool(doc) and doc.get("nonce") == nonce
        if won:
            self._held[name] = nonce
        else:
            self._held.pop(name, None)
        return won

    # -- protocol -------------------------------------------------------------
    def acquire(self, name: str) -> bool:
        """Try to take the lease for ``name``; never blocks.

        Returns ``True`` when this scheduler now holds a fresh lease —
        either by creating it (``O_CREAT|O_EXCL``) or by stealing an
        expired one.  ``False`` means a live peer holds it.
        """
        nonce = _nonce()
        try:
            fd = os.open(
                self._path(name), os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return self._try_steal(name, nonce)
        except OSError:
            return False
        created = None
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                created = os.fstat(fh.fileno())
                json.dump(self._doc(nonce), fh)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            # The lease may already be complete on disk: remove it, or it
            # would lock every peer (and this instance) out for a whole
            # ttl while nobody holds it.  A peer that stole a torn create
            # in the meantime keeps its own file.
            try:
                if created is not None and os.path.samestat(
                    os.stat(self._path(name)), created
                ):
                    os.unlink(self._path(name))
            except OSError:
                pass
            return False
        self._held[name] = nonce
        return True

    def _try_steal(self, name: str, nonce: str) -> bool:
        doc = self._read(name)
        if doc is not None:
            try:
                expires = float(doc.get("expires", 0.0))
            except (TypeError, ValueError):
                expires = 0.0  # malformed lease: treat as expired
            if time.time() < expires:
                return False  # live peer
        # Expired (or unreadable — e.g. a peer died mid-create): replace
        # atomically and arbitrate via read-back.
        try:
            self._write_over(name, nonce)
        except OSError:
            return False
        return self._verify(name, nonce)

    def renew(self, name: str) -> bool:
        """Refresh a held lease's expiry; ``False`` when it was lost.

        Verifies ownership *first*: if a peer stole the lease after a
        false expiry (clock skew, a long GC pause), the renew must not
        clobber the thief — the caller learns it lost and backs off.
        """
        nonce = self._held.get(name)
        if nonce is None:
            return False
        doc = self._read(name)
        if not doc or doc.get("nonce") != nonce:
            self._held.pop(name, None)
            return False
        try:
            self._write_over(name, nonce)
        except OSError:
            return False
        return self._verify(name, nonce)

    def release(self, name: str) -> None:
        """Drop a held lease (no-op when not held or already stolen)."""
        nonce = self._held.pop(name, None)
        if nonce is None:
            return
        doc = self._read(name)
        if not doc or doc.get("nonce") != nonce:
            return  # stolen after expiry: the thief's lease is not ours
        try:
            os.unlink(self._path(name))
        except OSError:
            pass

    def holder(self, name: str) -> Optional[str]:
        """Owner string of the current (possibly expired) lease, if any."""
        doc = self._read(name)
        return doc.get("owner") if doc else None

    def held(self) -> List[str]:
        """Names this instance believes it holds (not re-verified)."""
        return sorted(self._held)
