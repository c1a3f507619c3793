"""Multi-scheduler sweep fabric: leased shards over a shared journal.

``run_fabric`` lets N independent scheduler *processes* (started by
hand, by CI, or across a cluster over a shared filesystem) chew through
one large config batch cooperatively:

* The batch is deduplicated by content-addressed cache key and
  partitioned into **task shards** by key prefix
  (:func:`shard_of`) — the same two-hex-char prefix that names the
  journal and cache segment files, so a shard's lease holder is the
  *only* writer of its journal inodes.
* Each shard is guarded by an atomic lease file with expiry
  (:class:`~repro.sched.lease.ShardLeases`).  A scheduler acquires a
  shard, runs its configs through a normal :class:`Scheduler`
  (dedup, cache short-circuit, crash retry, durably committed journal),
  renews the lease while working, and releases it when the shard's
  results are durable.
* A scheduler that **dies** simply stops renewing; after ``ttl`` any
  peer steals the lease and re-runs the shard.  Whatever the dead peer
  already appended replays from the shared journal, so only what it
  had not yet written is re-simulated.
* Progress by *other* schedulers is observed through the journal's
  segment index (:meth:`~repro.cache.RunCache.has_key` reads what peers
  appended since the last look): a shard whose keys are all journaled
  is complete regardless of who ran it.

Correctness does not depend on lease exclusivity: execution is
idempotent by content address (duplicate journal lines are
bit-identical, last write wins), so overlapping holders only waste
work.  Results are assembled from the journal in request order, after
a commit of every segment they were read from, and are
**bit-identical to a serial run** — floats round-trip exactly, and the
simulator is deterministic per config.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.config import RunConfig, RunResult
from repro.sched.journal import ShardedJournal
from repro.sched.lease import ShardLeases
from repro.sched.scheduler import Scheduler, SchedulerError

__all__ = ["shard_of", "run_fabric", "FabricResult"]

#: Default number of task shards a fabric batch is partitioned into.
DEFAULT_NSHARDS = 16


def shard_of(key: str, nshards: int = DEFAULT_NSHARDS) -> int:
    """Task shard of a cache key: its journal prefix modulo ``nshards``.

    Deriving the shard from the *prefix* (not the whole key) keeps every
    journal/cache file prefix owned by exactly one task shard, so
    concurrent lease holders never append to the same journal inode.
    """
    if not 1 <= nshards <= 256:
        raise ValueError(f"nshards must be in [1, 256], got {nshards}")
    return int(key[:2], 16) % nshards


@dataclass
class FabricResult:
    """Outcome of one scheduler's participation in a fabric batch."""

    #: results for the *requested* configs, in request order
    results: List[RunResult]
    #: this scheduler's identity (lease owner string)
    owner: str
    #: shards this scheduler executed itself
    shards_run: List[int] = field(default_factory=list)
    #: shards observed complete (journaled) without running them
    shards_replayed: int = 0
    #: scheduler counters (see Scheduler.stats)
    stats: Dict[str, int] = field(default_factory=dict)
    #: journal telemetry (entries, pending, torn lines)
    journal_counts: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        """One greppable line for CLIs and CI logs."""
        c = self.journal_counts
        return (
            f"fabric: owner={self.owner} shards-run={len(self.shards_run)}"
            f" shards-replayed={self.shards_replayed}"
            f" results={len(self.results)}"
            f" journal-torn={c.get('torn', 0)}"
            f" journal-entries={c.get('entries', 0)}"
        )


def run_fabric(
    configs: Iterable[RunConfig],
    root: str,
    *,
    owner: Optional[str] = None,
    jobs: int = 1,
    nshards: int = DEFAULT_NSHARDS,
    ttl: float = 30.0,
    cache_dir: Optional[str] = None,
    poll_interval: float = 0.05,
    timeout: Optional[float] = 600.0,
) -> FabricResult:
    """Run a config batch cooperatively with any concurrent peers.

    ``root`` holds the shared state (``<root>/journal`` journal directory,
    ``<root>/leases`` lease files); every participating scheduler is
    pointed at the same directory and calls this with the same (or an
    overlapping) batch.  Returns once *every* requested config has a
    durable journal entry — whether this scheduler simulated it, replayed
    it from cache/journal, or watched a peer commit it.

    ``timeout`` bounds the time spent *waiting without progress* on
    shards leased by peers (``None`` disables the bound); a dead peer's
    shard is stolen after ``ttl`` seconds, so the default comfortably
    covers recovery.
    """
    from repro.cache import SHARD_PREFIX_CHARS, cacheable, config_key

    journal = ShardedJournal(os.path.join(root, "journal"))
    leases = ShardLeases(os.path.join(root, "leases"), owner=owner, ttl=ttl)

    # Dedup by content address; shard by key prefix. The forced-noise
    # override is resolved here exactly as Scheduler.map would, so the
    # fabric keys and the scheduler keys always agree.
    order: List[str] = []
    tasks: Dict[str, RunConfig] = {}
    for cfg in configs:
        cfg = Scheduler._forced(cfg)
        if not cacheable(cfg):
            raise SchedulerError(
                "fabric batches must be cacheable (no functional/traced "
                f"runs): {cfg.implementation}@{cfg.machine.name}"
            )
        key = config_key(cfg)
        order.append(key)
        tasks.setdefault(key, cfg)
    shards: Dict[int, List[str]] = {}
    for key in tasks:
        shards.setdefault(shard_of(key, nshards), []).append(key)

    sched = Scheduler(jobs=jobs, cache_dir=cache_dir, journal=journal)
    result = FabricResult(results=[], owner=leases.owner)
    pending = set(shards)
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while pending:
            progress = False
            for s in sorted(pending):
                keys = shards[s]
                if all(journal.has_key(k) for k in keys):
                    pending.discard(s)
                    result.shards_replayed += 1
                    progress = True
                    continue
                lease_name = f"shard-{s:03d}"
                if not leases.acquire(lease_name):
                    continue  # a live peer is working this shard
                stop = threading.Event()

                def _renew() -> None:
                    # Keep the lease alive while the shard executes; stop
                    # renewing the moment it is lost (a peer stole it after
                    # a false expiry — execution stays correct, idempotent).
                    while not stop.wait(ttl / 3.0):
                        if not leases.renew(lease_name):
                            return

                renewer = threading.Thread(target=_renew, daemon=True)
                renewer.start()
                try:
                    sched.map([tasks[k] for k in keys])
                finally:
                    stop.set()
                    renewer.join()
                    leases.release(lease_name)
                pending.discard(s)
                result.shards_run.append(s)
                progress = True
            if pending and not progress:
                if deadline is not None and time.monotonic() > deadline:
                    raise SchedulerError(
                        f"fabric timed out waiting on shards {sorted(pending)} "
                        f"leased by peers (no progress for {timeout}s total)"
                    )
                time.sleep(poll_interval)
        # Assemble results in request order from the shared journal, and
        # commit every segment they were read from: a peer's line may be
        # visible before that peer committed it. Floats round-trip
        # exactly, so this is bit-identical to a serial run.
        for key in order:
            got = journal.get(tasks[key])
            if got is None:  # pragma: no cover - defensive
                raise SchedulerError(f"fabric lost journal entry {key[:12]}")
            result.results.append(got)
        journal.flush(segments={key[:SHARD_PREFIX_CHARS] for key in tasks})
        result.stats = sched.stats()
        result.journal_counts = journal.counts()
    finally:
        sched.close()  # commits and closes the journal too
    return result
