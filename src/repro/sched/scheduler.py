"""The shared task scheduler behind sweeps, autotune, replicas and grids.

One :class:`Scheduler` instance turns batches of
:class:`~repro.core.config.RunConfig` into deduplicated tasks executed by
a persistent :class:`concurrent.futures.ProcessPoolExecutor` worker pool.
See :mod:`repro.sched` for the contract (dedup, cache short-circuit,
bounded crash retry with poisoning, resumable journal, telemetry).

Execution model
---------------
``map(configs)`` is synchronous: it returns results in request order,
bit-identical to a serial ``[run(c) for c in configs]``.  It is two
halves that callers on an event loop use apart: the non-blocking
``submit`` (keying, the intake ladder, registration, pool dispatch) and
the blocking ``collect`` (inline execution, drain, journal commit,
results).  ``probe(cfg)`` runs the same intake ladder for one config
without creating a record for a cold one.  Internally each
distinct config key owns one :class:`~repro.sched.task.TaskRecord`;
requesters of an already-known key — within the batch, across batches, or
from concurrent threads — coalesce onto the existing record and wait on
its ``done`` event instead of resubmitting.  Configs that cannot travel
through the pool (functional or traced runs, or any run while a
process-global trace capture is installed) execute inline in the parent,
exactly as the serial path would.

Crash recovery
--------------
A dying worker breaks the whole ``ProcessPoolExecutor`` (every pending
future raises :class:`BrokenExecutor`), so blame is ambiguous: any of the
in-flight configs could be the culprit.  The scheduler rebuilds the pool,
bumps the attempt count of every suspect, and resubmits the ones still
under ``max_retries`` in parallel.  A suspect that *exceeds* the bound is
never poisoned on ambiguous evidence — it is placed in a **quarantine**
and re-run *solo* (one task in the pool, everything else parked).  A solo
crash is exact blame: the config is poisoned and raises
:class:`PoisonedConfigError` to its requesters; a solo success exonerates
an innocent that was merely co-scheduled with a crasher.  Once the
quarantine drains, parked work resumes in parallel.  The deterministic
crasher is weeded out after at most ``max_retries`` ambiguous crashes
plus one solo crash; the rest of the batch always completes.
"""

from __future__ import annotations

import bisect
import logging
import os
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.core.config import RunConfig, RunResult
from repro.sched.journal import ShardedJournal
from repro.sched.task import TaskRecord, TaskState
from repro.sched.worker import execute_chunk, init_worker, pack_chunk

__all__ = [
    "Batch",
    "Scheduler",
    "SchedulerError",
    "PoisonedConfigError",
    "configure",
    "active_scheduler",
    "scheduled",
]

log = logging.getLogger("repro.sched")

#: Counter names reported by :meth:`Scheduler.stats` (always all present).
COUNTER_NAMES = (
    "submitted",
    "coalesced",
    "cache_hits",
    "journal_hits",
    "simulated",
    "inline",
    "failed",
    "poisoned",
    "retries",
    "crashes",
)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class SchedulerError(RuntimeError):
    """Base class for scheduler-raised errors."""


class PoisonedConfigError(SchedulerError):
    """A config crashed its worker more than ``max_retries`` times."""

    def __init__(self, cfg: RunConfig, attempts: int):
        self.cfg = cfg
        self.attempts = attempts
        super().__init__(
            f"config {cfg.implementation}@{cfg.machine.name} cores={cfg.cores} "
            f"threads={cfg.threads_per_task} T={cfg.box_thickness} crashed its "
            f"worker {attempts} times and is poisoned (bound: retries exhausted)"
        )


class Batch:
    """One submitted batch: the records :meth:`Scheduler.collect` finishes."""

    __slots__ = ("cfgs", "records", "owned", "waiting")

    def __init__(self, cfgs: List[RunConfig]):
        self.cfgs = cfgs
        #: per-slot record; ``None`` marks a config ``collect`` runs inline
        self.records: List[Optional[TaskRecord]] = [None] * len(cfgs)
        #: records this batch created (``collect`` executes or drains them)
        self.owned: List[TaskRecord] = []
        #: every record not yet terminal at submit, as an ordered set
        self.waiting: Dict[TaskRecord, None] = {}


class Scheduler:
    """Deduplicating parallel executor for batches of run configs.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` executes inline (serial order, no pool)
        while keeping dedup, cache short-circuit, journal and telemetry.
    cache_dir:
        Run-cache directory handed to every worker. Defaults to the
        directory of the process-wide cache (:func:`repro.cache.active_cache`)
        when one is installed.
    journal:
        Directory of the resumable journal (see
        :mod:`repro.sched.journal`), or an already-open
        :class:`~repro.sched.journal.ShardedJournal`; ``None`` disables
        journaling.  ``collect`` commits the journal before surfacing
        results, so nothing unjournaled is ever returned.
    max_retries:
        Worker crashes a single config may survive before being poisoned.
    straggler_factor:
        A completed task is logged as a straggler when its wall time
        exceeds ``straggler_factor`` x the batch median.
    chunk_max_tasks:
        Upper bound on tasks per pool submission.  Tasks ship in chunks of
        roughly ``len(batch)/(jobs*4)`` (clamped to ``[1,
        chunk_max_tasks]``), each pickled once as a whole, to amortize
        per-future IPC while keeping enough chunks in flight to load every
        worker; full chunks leave while the rest of their batch is still
        being keyed (see :meth:`submit`).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        journal: Optional[Union[str, ShardedJournal]] = None,
        max_retries: int = 2,
        straggler_factor: float = 3.0,
        chunk_max_tasks: int = 32,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if chunk_max_tasks < 1:
            raise ValueError(
                f"chunk_max_tasks must be >= 1, got {chunk_max_tasks}"
            )
        self.jobs = int(jobs)
        self.max_retries = int(max_retries)
        self.straggler_factor = float(straggler_factor)
        self.chunk_max_tasks = int(chunk_max_tasks)
        #: chunks the pool may hold while a thread keys a batch: the CPUs
        #: that thread leaves free (see submit)
        self._intake_room = max(1, min(self.jobs, _cpus() - 1))
        if cache_dir is None:
            from repro.cache import active_cache

            active = active_cache()
            cache_dir = active.directory if active is not None else None
        self.cache_dir = cache_dir
        if isinstance(journal, (str, os.PathLike)):
            journal = ShardedJournal(journal)
        self.journal: Optional[ShardedJournal] = journal
        #: parent-side cache handle for probing/storing when no ambient
        #: cache is installed (lazy; see the cache property)
        self._cache: Optional[Any] = None
        #: test/CI hook: ``(cfg, attempt) -> bool`` — True crashes the worker
        #: assigned to this config on this attempt (see repro.sched.worker).
        self.fault_injector: Optional[Callable[[RunConfig, int], bool]] = None

        self._lock = threading.RLock()
        #: signalled by a future's done-callback; drain loops sleep on it
        self._cond = threading.Condition(self._lock)
        #: chunk futures settled since a drainer last looked, in
        #: completion order (filled by the done-callback)
        self._settled: List[Future] = []
        #: chunks submitted to the pool and not yet settled
        self._in_pool = 0
        self._exec: Optional[ProcessPoolExecutor] = None
        #: key -> terminal record (session-wide dedup, including failures)
        self._memo: Dict[str, TaskRecord] = {}
        #: key -> in-flight record (coalescing target)
        self._inflight: Dict[str, TaskRecord] = {}
        #: chunk future -> the records it carries (drainers claim by pop)
        self._chunk_records: Dict[Future, List[TaskRecord]] = {}
        #: records awaiting a *solo* confirmation run (exact crash blame)
        self._quarantine: List[TaskRecord] = []
        #: the record currently running solo, if any
        self._qactive: Optional[TaskRecord] = None
        #: records parked while the quarantine drains
        self._parked: List[TaskRecord] = []
        self._counters: Dict[str, int] = {k: 0 for k in COUNTER_NAMES}
        #: completion hooks: ``fn(record)`` fired exactly once per record
        #: reaching a terminal state, always *outside* the scheduler lock
        #: (see add_completion_hook)
        self._hooks: List[Callable[[TaskRecord], None]] = []
        #: wall seconds of every *simulated* task, in completion order
        self.wall_times: List[float] = []
        #: the same wall times kept sorted, for the running straggler median
        self._sorted_walls: List[float] = []
        #: telemetry dicts of detected stragglers (see TaskRecord.describe)
        self.straggler_log: List[Dict[str, Any]] = []
        #: telemetry dicts of poisoned configs
        self.poisoned: List[Dict[str, Any]] = []
        self._closed = False

    # -- pool lifecycle -------------------------------------------------------
    def _executor(self) -> ProcessPoolExecutor:
        if self._exec is None:
            self._exec = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=init_worker,
                initargs=(self.cache_dir,),
            )
        return self._exec

    def _rebuild_pool(self) -> None:
        if self._exec is not None:
            self._exec.shutdown(wait=False, cancel_futures=True)
            self._exec = None

    def close(self) -> None:
        """Shut the worker pool down and close the journal."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._exec = self._exec, None
        if pool is not None:
            # Outside the lock: done-callbacks of still-running chunks
            # (an exception left map() early) take it to wake drainers.
            pool.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            if self.journal is not None:
                self.journal.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------------
    @staticmethod
    def _forced(cfg: RunConfig) -> RunConfig:
        """Apply the process-global noise override before keying.

        Mirrors :func:`repro.core.runner.run`, so a scheduled run keys and
        simulates exactly the config the serial path would.
        """
        from repro.perturb import forced_override

        forced = forced_override()
        if forced is not None and cfg.seed is None and cfg.noise is None:
            return cfg.with_(seed=forced[0], noise=forced[1])
        return cfg

    @staticmethod
    def _poolable(cfg: RunConfig) -> bool:
        """Whether this config's run may execute in a worker process.

        Functional and traced runs carry non-scalar artifacts, and a
        process-global trace capture hook must observe every run in the
        installing process — all of those execute inline instead.
        """
        from repro.cache import cacheable
        from repro.obs.capture import active_capture

        return cacheable(cfg) and active_capture() is None

    def _submit_chunk(self, recs: Sequence[TaskRecord]) -> None:
        """Dispatch one chunk of records to the pool (caller holds the lock).

        The chunk's ``[{"cfg", "key"}, ...]`` list is pickled once, as a
        whole (:func:`~repro.sched.worker.pack_chunk`), so pickle's memo
        writes a machine shared by the chunk's configs only once; the pool
        ships it through a single future, amortizing submit/IPC overhead
        over ``len(recs)`` tasks.  Nothing is kept: a crash retry
        re-pickles the chunk it is resubmitted in.  Fault-injection
        markers travel as items of the same list.
        """
        inject = self.fault_injector
        blob = pack_chunk([
            {"crash": True}
            if inject is not None and inject(rec.cfg, rec.attempts)
            else {"cfg": rec.cfg, "key": bytes.fromhex(rec.key)}
            for rec in recs
        ])
        try:
            fut = self._executor().submit(execute_chunk, blob)
        except BrokenExecutor as exc:
            # An earlier chunk's worker crash broke the pool before this
            # chunk went out: settle it as a broken chunk, so the drain
            # loop's crash-blame path rebuilds the pool and resubmits it.
            fut = Future()
            fut.set_exception(exc)
        now = time.perf_counter()
        for rec in recs:
            rec.state = TaskState.RUNNING
            rec.t_submit = now
            rec.future = fut
        self._chunk_records[fut] = list(recs)
        self._in_pool += 1
        fut.add_done_callback(self._wake)

    def _chunk_size(self, n: int) -> int:
        """Tasks per chunk for ``n`` tasks.

        Targets ~4 chunks per worker so stragglers cannot serialize the
        tail, bounded by ``chunk_max_tasks`` so one future never carries
        an unbounded payload.
        """
        return max(1, min(self.chunk_max_tasks, -(-n // (self.jobs * 4))))

    def _dispatch(
        self, recs: Sequence[TaskRecord], size: Optional[int] = None
    ) -> None:
        """Send records to the pool in chunks of ``size`` (default: sized
        for ``len(recs)``), or park them while a quarantine holds the pool
        (caller holds the lock)."""
        if self._quarantining():
            self._parked.extend(recs)  # resumes after the quarantine
            return
        size = size or self._chunk_size(len(recs))
        for i in range(0, len(recs), size):
            self._submit_chunk(recs[i:i + size])

    def _wake(self, fut: Future) -> None:
        """Future done-callback: queue the chunk and wake the drainers."""
        with self._cond:
            self._in_pool -= 1
            self._settled.append(fut)
            self._cond.notify_all()

    # -- completion hooks ------------------------------------------------------
    def add_completion_hook(
        self, fn: Callable[[TaskRecord], None]
    ) -> Callable[[TaskRecord], None]:
        """Register ``fn(record)`` to fire when a record goes terminal.

        Fired exactly once per distinct record — on simulation completion,
        failure, poisoning, or a warm cache/journal short-circuit — never
        for coalesced re-requests of an already-terminal key.  Hooks are
        invoked **outside** the scheduler lock, from whichever thread
        completed the record, so a hook may safely call back into
        ``stats()``/``snapshot()`` (or hand the event to another thread
        that does) without deadlocking a concurrent ``map()``.  Hook
        exceptions are logged and swallowed.  Returns ``fn`` so callers
        can unregister it later.
        """
        with self._lock:
            self._hooks.append(fn)
        return fn

    def remove_completion_hook(self, fn: Callable[[TaskRecord], None]) -> None:
        """Unregister a completion hook (no-op when not registered)."""
        with self._lock:
            try:
                self._hooks.remove(fn)
            except ValueError:
                pass

    def _fire_hooks(self, recs: Sequence[TaskRecord]) -> None:
        """Invoke completion hooks for newly terminal records.

        Must be called WITHOUT the scheduler lock held: hooks are user
        code (the serve path bridges them onto an event loop) and may
        re-enter telemetry methods from other threads.
        """
        if not recs:
            return
        with self._lock:
            hooks = list(self._hooks)
        if not hooks:
            return
        for rec in recs:
            for fn in hooks:
                try:
                    fn(rec)
                except Exception:  # never let a hook break the scheduler
                    log.exception("completion hook failed for %s", rec)

    def map(
        self,
        configs: Iterable[RunConfig],
        return_exceptions: bool = False,
    ) -> List[Union[RunResult, BaseException]]:
        """Execute a batch; results come back in request order.

        :meth:`submit` followed by :meth:`collect`.  With
        ``return_exceptions=False`` (default) the first failed or poisoned
        task raises (after the whole batch settled, so sibling results
        are journaled/cached).  With ``return_exceptions=True`` failures
        are returned in-slot as the exception object.
        """
        return self.collect(self.submit(configs), return_exceptions)

    def probe(
        self, cfg: RunConfig
    ) -> Tuple[Optional[TaskRecord], Optional[str]]:
        """Resolve one config through the intake ladder, dispatching nothing.

        The same lookup :meth:`submit` runs — memo, then in-flight, then
        journal replay, then cache replay — for one config.  Returns
        ``(record, tier)`` with ``tier`` one of ``"memo"``,
        ``"inflight"``, ``"journal"`` or ``"cache"``; the record is
        terminal except for ``"inflight"``.  A cold config, or one that
        cannot travel through the pool, gives ``(None, None)`` and no
        record is created.  A hit counts as a submission, exactly as in
        ``map``; a miss counts nothing, so the ``submit`` that follows
        counts the config once.
        """
        if self._closed:
            raise SchedulerError("scheduler is closed")
        from repro.cache import config_key

        cfg = self._forced(cfg)
        if not self._poolable(cfg):
            return None, None
        key = config_key(cfg)
        cache = self.cache
        fresh: List[TaskRecord] = []
        with self._lock:
            rec, tier = self._lookup(key, cfg, cache, fresh)
            if rec is not None:
                self._counters["submitted"] += 1
        self._fire_hooks(fresh)
        return rec, tier

    def submit(
        self,
        configs: Iterable[RunConfig],
        probed: Optional[Sequence[Optional[TaskRecord]]] = None,
    ) -> Batch:
        """Key, deduplicate and dispatch a batch without blocking.

        Every config passes the intake ladder (see :meth:`probe`); a cold
        one gets a fresh record, registered in-flight before this returns
        so any later requester coalesces onto it, and — with ``jobs > 1``
        — is already on its way to the pool.  ``probed`` carries the
        records a :meth:`probe` of the same configs just returned, slot by
        slot: a record is reused as is (the probe counted it) and a
        ``None`` slot skips the journal and cache lookups the probe just
        made.  Hand the returned :class:`Batch` to :meth:`collect`.
        """
        if self._closed:
            raise SchedulerError("scheduler is closed")
        # The per-config loop below is the warm-lookup hot path (millions
        # of configs resolve here without touching a worker), so the
        # ambient lookups are hoisted out: one forced-noise resolution and
        # one capture check.
        from repro.cache import cacheable, config_key
        from repro.obs.capture import active_capture
        from repro.perturb import forced_override

        forced = forced_override()
        if forced is not None:
            cfgs = [
                c.with_(seed=forced[0], noise=forced[1])
                if c.seed is None and c.noise is None else c
                for c in configs
            ]
        else:
            cfgs = list(configs)
        capturing = active_capture() is not None
        batch = Batch(cfgs)
        fresh: List[TaskRecord] = []  # warm short-circuits (hooks fire)
        pooled = self.jobs > 1
        size = self._chunk_size(len(cfgs))
        # Pooled batches are keyed block by block and a chunk is ready as
        # soon as ``size`` cold records are, so the workers start while
        # the rest of the batch is still being keyed; the cold remainder
        # is split by the same rule.  This thread needs a CPU of its own
        # meanwhile: a ready chunk waits while the pool holds as many
        # chunks as the CPUs it leaves free, so the tasks that run during
        # intake do not share their CPU with it.  Inline (jobs=1) batches
        # are keyed whole before the lock is taken.
        step = size if pooled else max(1, len(cfgs))
        cold: List[TaskRecord] = []  # keyed, not yet in a chunk
        ready: List[List[TaskRecord]] = []  # full chunks not yet sent
        cache = self.cache
        try:
            for lo in range(0, len(cfgs), step):
                block = cfgs[lo:lo + step]
                # Keyed outside the lock: hashing is the costly part of
                # intake, and the pool's done-callbacks take the lock.
                keys = [
                    config_key(c) if not capturing and cacheable(c) else None
                    for c in block
                ]
                with self._lock:
                    for i, (cfg, key) in enumerate(zip(block, keys), lo):
                        rec = probed[i] if probed is not None else None
                        if rec is None:
                            self._counters["submitted"] += 1
                            if key is None:  # functional/traced: inline
                                continue
                            rec, _tier = self._lookup(
                                key, cfg, cache, fresh, replay=probed is None
                            )
                        if rec is None:  # cold: register, then dispatch
                            rec = TaskRecord(key, cfg)
                            self._inflight[key] = rec
                            batch.owned.append(rec)
                            if pooled:
                                cold.append(rec)
                                if len(cold) == size:
                                    ready.append(cold)
                                    cold = []
                        batch.records[i] = rec
                        if not rec.done.is_set():
                            batch.waiting[rec] = None
                    while ready and self._in_pool < self._intake_room:
                        self._dispatch(ready.pop(0), size)
        finally:
            # Also on an intake error: a registered record must not be
            # left in flight without ever reaching the pool.
            if ready or cold:
                with self._lock:
                    for chunk in ready:
                        self._dispatch(chunk, size)
                    self._dispatch(cold)
        # Warm short-circuits went terminal during intake; notify hooks
        # now that the lock is released.
        self._fire_hooks(fresh)
        return batch

    def collect(
        self, batch: Batch, return_exceptions: bool = False
    ) -> List[Union[RunResult, BaseException]]:
        """Finish a submitted batch; results come back in request order.

        Runs the inline configs (and, with ``jobs=1``, every owned record)
        in this thread, drains the pool, waits for records other callers
        own, and commits the journal before anything is returned, so
        nothing unjournaled is ever surfaced.
        """
        # Inline execution (functional/traced/captured runs): serial order,
        # exactly the code path the unscheduled pipeline takes.
        from repro.core.runner import run

        inline: Dict[int, Union[RunResult, BaseException]] = {}
        for i, rec in enumerate(batch.records):
            if rec is not None:
                continue
            with self._lock:
                self._counters["inline"] += 1
            try:
                inline[i] = run(batch.cfgs[i])
            except BaseException as exc:  # raised once the batch settled
                inline[i] = exc

        if self.jobs == 1:
            self._drain_inline(batch.owned)
        else:
            self._drain_pool(batch.owned)
        for rec in batch.waiting:
            rec.done.wait()

        # Durability invariant: the journal lines covering this batch
        # become durable *before* any result is surfaced, so a caller can
        # never hold a result whose line a SIGKILL would lose.
        if self.journal is not None:
            self.journal.flush()

        out = [
            inline[i] if rec is None else rec.outcome(cfg)
            for i, (cfg, rec) in enumerate(zip(batch.cfgs, batch.records))
        ]
        if not return_exceptions:
            for item in out:
                if isinstance(item, BaseException):
                    raise item
        return out

    def _lookup(
        self,
        key: str,
        cfg: RunConfig,
        cache: Any,
        fresh: List[TaskRecord],
        replay: bool = True,
    ) -> Tuple[Optional[TaskRecord], Optional[str]]:
        """The intake ladder for one key (caller holds the lock).

        Memo, then in-flight, then (with ``replay``) journal and cache
        replay, counting the tier that answered; replayed records are
        appended to ``fresh`` for the completion hooks.  Returns
        ``(record, tier)``, or ``(None, None)`` when the key is cold.
        """
        rec = self._memo.get(key)
        if rec is not None:  # session dedup (results and failures)
            self._counters["coalesced"] += 1
            return rec, "memo"
        rec = self._inflight.get(key)
        if rec is not None:  # in-flight coalescing
            self._counters["coalesced"] += 1
            return rec, "inflight"
        if not replay:
            return None, None
        # Warm journal, then warm cache entry: replay, no worker occupied.
        # Both are run-cache handles; misses are not charged here — the
        # worker that simulates the config counts the authoritative one.
        for handle, state, tier in (
            (self.journal, TaskState.JOURNALED, "journal"),
            (cache, TaskState.CACHED, "cache"),
        ):
            payload = handle.replay(key) if handle is not None else None
            if payload is not None:
                break
        else:
            return None, None
        if tier == "cache" and self.journal is not None:
            self._journal(key, payload)
        rec = TaskRecord(key, cfg)
        rec.payload = payload
        rec.state = state
        rec.done.set()
        self._memo[key] = rec
        self._counters[f"{tier}_hits"] += 1
        fresh.append(rec)
        return rec, tier

    @property
    def cache(self):
        """Parent-side run cache: the ambient one, else a private handle.

        The ambient cache (:func:`repro.cache.active_cache`) wins when
        installed so its hit/miss counters stay authoritative.  Otherwise
        a scheduler constructed with an explicit ``cache_dir`` opens its
        own handle, keeping warm short-circuits (and jobs=1 stores)
        working without process-global configuration.
        """
        from repro.cache import RunCache, active_cache

        cache = active_cache()
        if cache is not None:
            return cache
        if self.cache_dir is None:
            return None
        if self._cache is None:
            self._cache = RunCache(self.cache_dir)
        return self._cache

    # -- inline (jobs=1) execution -------------------------------------------
    def _drain_inline(self, owned: Sequence[TaskRecord]) -> None:
        from repro.cache import active_cache
        from repro.core.runner import run

        for rec in owned:
            rec.state = TaskState.RUNNING
            t0 = time.perf_counter()
            try:
                result = run(rec.cfg)
            except BaseException as exc:
                self._finish_failure(rec, exc)
                continue
            # ``run`` stores through the ambient cache when one is
            # installed; with only a private ``cache_dir`` handle, mirror
            # the worker protocol here (authoritative miss, then store) so
            # jobs=1 leaves the same on-disk artifacts a pool would.
            cache = self.cache
            if cache is not None and cache is not active_cache():
                if cache.get(rec.cfg) is None:
                    cache.put(rec.cfg, result)
            payload = {
                "elapsed_s": result.elapsed_s,
                "phases": dict(result.phases),
                "comm_stats": dict(result.comm_stats),
                "wall_s": time.perf_counter() - t0,
            }
            self._finish_success(rec, payload)

    # -- pool draining --------------------------------------------------------
    def _quarantining(self) -> bool:
        """Whether the pool is reserved for solo confirmation runs."""
        return bool(self._quarantine) or self._qactive is not None or bool(
            self._parked
        )

    def _pump(self) -> None:
        """Advance the quarantine (caller holds the lock).

        Submits the next quarantined record *solo*; once the quarantine is
        empty, flushes every parked record back into the pool in parallel.
        """
        if self._qactive is not None:
            if not self._qactive.done.is_set():
                return  # solo run in progress
            self._qactive = None
        while self._quarantine:
            rec = self._quarantine.pop(0)
            if rec.done.is_set():
                continue
            self._submit_chunk([rec])  # solo confirmation run
            self._qactive = rec
            return
        if self._parked:
            parked, self._parked = self._parked, []
            self._dispatch([rec for rec in parked if not rec.done.is_set()])

    def _drain_pool(self, owned: Sequence[TaskRecord]) -> None:
        """Wait for owned records, recovering from broken pools.

        Event-driven and linear in completions: each chunk future's
        done-callback queues it on ``self._settled`` and signals
        ``self._cond`` (as do the ``_finish_*`` paths and crash
        recovery); a pass settles the queued chunks and advances a front
        pointer past this call's settled records, so no record or future
        is rescanned per wake-up.  Any drainer may settle any queued
        chunk.  The wait timeout is a safety net for records parked
        behind a quarantine, whose future is ``None`` until the pump
        resubmits them.
        """
        front, n = 0, len(owned)
        while front < n:
            with self._cond:
                self._pump()
                while front < n and owned[front].done.is_set():
                    front += 1
                if front == n:
                    return
                if not self._settled:
                    self._cond.wait(timeout=0.05)
                    continue
                ready, self._settled = self._settled, []
            for fut in ready:
                self._handle_chunk(fut)

    def _handle_chunk(self, fut: Future) -> None:
        """Settle one completed chunk future (claimed by pop, so exactly
        one drainer processes it even when several own records in it)."""
        with self._lock:
            recs = self._chunk_records.pop(fut, None)
        if recs is None:
            return  # another drainer claimed it, or it went stale
        # Records resubmitted by crash recovery carry a newer future and
        # must not be settled from this (stale) one.
        live = [r for r in recs if not r.done.is_set() and r.future is fut]
        exc = fut.exception()
        if exc is None:
            outcomes = fut.result()
            by_key = {o.get("key"): o for o in outcomes}
            for rec in live:
                outcome = by_key.get(rec.key)
                if outcome is None:
                    self._finish_failure(
                        rec,
                        SchedulerError(
                            f"task {rec.key[:12]} missing from its chunk result"
                        ),
                    )
                elif "error" in outcome:
                    # Per-task simulator exception, shipped back as data so
                    # chunk-mates keep their results.
                    self._finish_failure(rec, outcome["error"])
                else:
                    payload = dict(outcome)
                    self._merge_cache_delta(payload.pop("cache_delta", None))
                    rec.worker_pid = payload.pop("pid", None)
                    self._finish_success(rec, payload)
        elif isinstance(exc, BrokenExecutor):
            if live:
                self._on_broken(fut, live[0])
        else:
            # CancelledError after a pool rebuild (records were already
            # resubmitted, live is empty) or a submit-side error.
            for rec in live:
                self._finish_failure(rec, exc)

    def _on_broken(self, fut: Future, rec: TaskRecord) -> None:
        """Rebuild the pool after a worker crash; assign blame.

        Every in-flight record with a live future is a *suspect*.  One
        suspect means exact blame (it was running solo): bump its count
        and poison past ``max_retries``.  Several suspects mean ambiguous
        blame: bump everyone and resubmit, except that a suspect past the
        bound goes to the quarantine for a solo confirmation run instead
        of being poisoned on circumstantial evidence.
        """
        poisoned_rec: Optional[TaskRecord] = None
        with self._lock:
            if rec.done.is_set() or rec.future is not fut:
                return  # this crash was already handled by another drainer
            self._counters["crashes"] += 1
            self._rebuild_pool()
            suspects = [
                r
                for r in self._inflight.values()
                if not r.done.is_set() and r.future is not None
            ]
            for r in suspects:
                r.future = None
                r.attempts += 1
            # Chunk futures whose records were all nulled above will still
            # complete (broken/cancelled); drop their bookkeeping now so
            # the claim table cannot leak across pool rebuilds.
            self._chunk_records = {
                f: rs
                for f, rs in self._chunk_records.items()
                if any(r.future is f for r in rs)
            }
            if self._qactive is not None and self._qactive.future is None:
                self._qactive = None  # the solo run itself crashed
            solo = len(suspects) == 1
            over = [r for r in suspects if r.attempts > self.max_retries]
            under = [r for r in suspects if r.attempts <= self.max_retries]
            if solo and over:
                self._finish_poisoned(over[0])  # exact blame
                poisoned_rec = over[0]
                under = []
                over = []
            for r in over:
                self._counters["retries"] += 1
                log.warning(
                    "worker crash: %s exceeded %d retries under ambiguous "
                    "blame; quarantining for a solo confirmation run",
                    r, self.max_retries,
                )
                self._quarantine.append(r)
            for r in under:
                self._counters["retries"] += 1
                log.warning(
                    "worker crash: retrying %s (attempt %d/%d)",
                    r, r.attempts, self.max_retries,
                )
            self._dispatch(under)  # re-chunked for the fresh pool
            self._cond.notify_all()  # futures were nulled: drainers re-pump
        if poisoned_rec is not None:
            self._fire_hooks([poisoned_rec])

    # -- completion bookkeeping ----------------------------------------------
    def _merge_cache_delta(self, delta: Optional[Dict[str, int]]) -> None:
        cache = self.cache
        if delta and cache is not None:
            cache.merge_stats(delta)

    def _finish_success(self, rec: TaskRecord, payload: Dict[str, Any]) -> None:
        with self._lock:
            if rec.done.is_set():
                return
            rec.wall_s = payload.pop("wall_s", None)
            payload.pop("key", None)
            rec.payload = payload
            rec.state = TaskState.DONE
            self._memo[rec.key] = rec
            self._inflight.pop(rec.key, None)
            self._counters["simulated"] += 1
            if rec.wall_s is not None:
                self.wall_times.append(rec.wall_s)
                bisect.insort(self._sorted_walls, rec.wall_s)
                self._note_straggler(rec)
            if self.journal is not None:
                self._journal(rec.key, payload)
            rec.done.set()
            self._cond.notify_all()
        self._fire_hooks([rec])

    def _journal(self, key: str, payload: Dict[str, Any]) -> None:
        """Append one journal line (caller holds the lock).

        An append that fails here (``ENOSPC``, ``EIO``) leaves the line
        pending and must not leave its record unsettled: the commit
        :meth:`collect` runs before it returns results rewrites it, and
        raises if that fails too, so nothing unjournaled is ever surfaced.
        """
        try:
            self.journal.record(key, payload)
        except OSError as exc:
            log.warning("journal append failed, line kept pending: %s", exc)

    def _finish_failure(self, rec: TaskRecord, exc: BaseException) -> None:
        with self._lock:
            if rec.done.is_set():
                return
            rec.error = exc
            rec.state = TaskState.FAILED
            self._memo[rec.key] = rec
            self._inflight.pop(rec.key, None)
            self._counters["failed"] += 1
            log.warning("task failed: %s: %s", rec, exc)
            rec.done.set()
            self._cond.notify_all()
        self._fire_hooks([rec])

    def _finish_poisoned(self, rec: TaskRecord) -> None:
        # Caller holds the lock (only reached from _on_broken, which fires
        # the completion hooks once it has released the lock).
        rec.error = PoisonedConfigError(rec.cfg, rec.attempts)
        rec.state = TaskState.POISONED
        self._memo[rec.key] = rec
        self._inflight.pop(rec.key, None)
        self._counters["poisoned"] += 1
        self.poisoned.append(rec.describe())
        log.error("poisoned config: %s", rec.error)
        rec.done.set()
        self._cond.notify_all()

    def _note_straggler(self, rec: TaskRecord) -> None:
        """Log tasks whose wall time dwarfs the running median.

        The median is read off the sorted copy with
        ``statistics.median``'s rule, so no completion re-sorts the list.
        """
        walls = self._sorted_walls
        n = len(walls)
        if n < 4 or rec.wall_s is None:
            return
        mid = n // 2
        median = walls[mid] if n % 2 else (walls[mid - 1] + walls[mid]) / 2
        if median > 0 and rec.wall_s > self.straggler_factor * median:
            entry = rec.describe()
            entry["median_s"] = median
            self.straggler_log.append(entry)
            log.info(
                "straggler: %s took %.3fs (median %.3fs)",
                rec, rec.wall_s, median,
            )

    # -- telemetry ------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Snapshot of every counter (all names always present)."""
        with self._lock:
            return dict(self._counters)

    def journal_counts(self) -> Optional[Dict[str, int]]:
        """Journal telemetry (entries, pending, torn lines)."""
        if self.journal is None:
            return None
        return self.journal.counts()

    def snapshot(self) -> Dict[str, Any]:
        """Consistent telemetry snapshot under a single lock acquire.

        Everything ``summary()`` and the serve ``/metrics`` endpoint
        report is gathered while the scheduler lock is held *once*:
        counters, in-flight/memo/quarantine gauges, wall-time aggregates
        and the journal tallies.  Assembling these field-by-field (one
        ``stats()`` call here, one ``journal_counts()`` there) can
        interleave with a concurrent batch and produce torn readings —
        e.g. a ``coalesced`` observed from a later batch than the
        ``submitted`` it is compared against.  Within one snapshot the
        counter invariants always hold (every terminal tally is counted
        against an already-incremented ``submitted``).
        """
        with self._lock:
            wall = {
                "count": len(self.wall_times),
                "total_s": float(sum(self.wall_times)),
                "max_s": max(self.wall_times) if self.wall_times else 0.0,
            }
            snap: Dict[str, Any] = {
                "jobs": self.jobs,
                "counters": dict(self._counters),
                "inflight": len(self._inflight),
                "memoized": len(self._memo),
                "quarantined": len(self._quarantine)
                + (1 if self._qactive is not None else 0),
                "parked": len(self._parked),
                "poisoned_configs": len(self.poisoned),
                "stragglers": len(self.straggler_log),
                "wall": wall,
                "journal": (
                    self.journal.counts() if self.journal is not None else None
                ),
            }
        return snap

    def summary(self) -> str:
        """One greppable line for CLIs and CI logs.

        Built from a single :meth:`snapshot`, so the printed counters are
        mutually consistent even while other threads complete tasks.
        When a journal is attached, the count of torn lines its segment
        reader skipped and its entry count are appended.
        """
        snap = self.snapshot()
        s = snap["counters"]
        parts = " ".join(f"{k.replace('_', '-')}={s[k]}" for k in COUNTER_NAMES)
        line = f"scheduler: jobs={self.jobs} {parts}"
        counts = snap["journal"]
        if counts is not None:
            line += (
                f" journal-torn={counts['torn']}"
                f" journal-entries={counts['entries']}"
            )
        return line


#: The process-wide scheduler consulted by sweep/autotune/replica drivers.
_active: Optional[Scheduler] = None


def configure(jobs: Optional[int] = None, **kwargs) -> Optional[Scheduler]:
    """Install (or, with ``None``, remove) the process-wide scheduler.

    The previous scheduler, if any, is closed.  Keyword arguments go to
    :class:`Scheduler`.
    """
    global _active
    if _active is not None:
        _active.close()
    _active = Scheduler(jobs=jobs, **kwargs) if jobs is not None else None
    return _active


def active_scheduler() -> Optional[Scheduler]:
    """The currently installed scheduler, if any."""
    return _active


@contextmanager
def scheduled(jobs: int, **kwargs):
    """Temporarily install a process-wide scheduler (restores the prior)."""
    global _active
    prev = _active
    sched = Scheduler(jobs=jobs, **kwargs)
    _active = sched
    try:
        yield sched
    finally:
        _active = prev
        sched.close()
