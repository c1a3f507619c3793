"""Parallel run scheduler: deduplicated task execution for config batches.

The paper's whole argument is that heterogeneous work should be scheduled
so nothing idles (CPU, GPU, MPI and PCIe overlap, Figs. 9-12).  This
package applies the same idea to our *own* regeneration pipeline: every
batch of :class:`~repro.core.config.RunConfig` points — tuning sweeps
(:mod:`repro.perf.sweep`), autotune candidate batches
(:mod:`repro.autotune.search`), Monte-Carlo replicas
(:func:`repro.core.runner.run_replicated`) and whole experiment grids
(:func:`repro.experiments.common.run_experiments`) — is expressed as a
set of independent tasks and handed to one shared
:class:`~repro.sched.scheduler.Scheduler`:

* **Dedup & coalescing** — tasks are keyed by the content-addressed cache
  key (:func:`repro.cache.config_key`), so each distinct config is
  simulated at most once per session; concurrent requesters of an
  in-flight config wait on the same task instead of resubmitting it.
* **One intake ladder, three doors** — ``map`` is the non-blocking
  ``submit`` (keying, memo → in-flight → journal → cache lookup,
  registration, dispatch) followed by the blocking ``collect`` (inline
  runs, drain, journal commit, results); ``probe`` runs the same lookup
  for one config without creating a record for a cold one.  The serve
  daemon answers, coalesces and admits through these three alone.
* **Cache short-circuit** — warm entries of the run cache
  (:mod:`repro.cache`) are replayed in the parent without occupying a
  worker slot.
* **Crash resilience** — a worker process dying does not kill the batch:
  the pool is rebuilt, in-flight tasks are retried a bounded number of
  times, and a config that keeps crashing its worker is marked *poisoned*
  and reported instead of retried forever.
* **Resumable journal** — completed task results are appended to a
  journal (:class:`~repro.sched.journal.ShardedJournal`), a run-cache
  directory that ``collect`` commits durably (one fsync per segment
  appended to, never surfacing an undurable result; a failed append
  stays pending and never strands a task); a ``SIGKILL``-interrupted
  batch restarted against the same journal replays finished configs
  instead of re-simulating them.
* **Multi-scheduler fabric** — N independent scheduler processes share
  one batch by leasing task shards via atomic lease files with expiry
  (:mod:`repro.sched.lease`, :mod:`repro.sched.fabric`); a dead
  scheduler's shard is stolen by a peer after the lease expires, and
  results stay bit-identical because execution is idempotent by content
  address.
* **Telemetry** — submitted / coalesced / cache-hit / journal-hit /
  simulated / failed / poisoned / retry counters, the journal's entry,
  pending and torn-line counts, per-task wall times
  and a straggler log; the counters feed the ``advection-repro sweep``
  CLI's stats line.

Results are **bit-identical** to the serial path: workers run the same
deterministic simulator, results travel back as exact floats, and the
journal stores them with full round-trip precision.
"""

from repro.sched.fabric import FabricResult, run_fabric, shard_of
from repro.sched.journal import ShardedJournal
from repro.sched.lease import ShardLeases
from repro.sched.scheduler import (
    Batch,
    PoisonedConfigError,
    Scheduler,
    SchedulerError,
    active_scheduler,
    configure,
    scheduled,
)
from repro.sched.task import TaskRecord, TaskState
from repro.sched.validate import validate_config

__all__ = [
    "Batch",
    "FabricResult",
    "PoisonedConfigError",
    "Scheduler",
    "SchedulerError",
    "ShardLeases",
    "ShardedJournal",
    "TaskRecord",
    "TaskState",
    "active_scheduler",
    "configure",
    "run_fabric",
    "scheduled",
    "shard_of",
    "validate_config",
]
