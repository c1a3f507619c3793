"""Task records: one deduplicated unit of scheduler work."""

from __future__ import annotations

import enum
import threading
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import RunConfig

__all__ = ["TaskState", "TaskRecord"]


class TaskState(str, enum.Enum):
    """Lifecycle of one deduplicated config task."""

    #: created, not yet dispatched
    PENDING = "pending"
    #: dispatched to a worker (or running inline)
    RUNNING = "running"
    #: simulated successfully this session
    DONE = "done"
    #: short-circuited from the warm run cache (no worker occupied)
    CACHED = "cached"
    #: replayed from the resumable journal (no worker occupied)
    JOURNALED = "journaled"
    #: the simulator raised (deterministic failure; never retried)
    FAILED = "failed"
    #: crashed its worker more than ``max_retries`` times
    POISONED = "poisoned"


#: States in which a record carries a usable result payload.
_RESULT_STATES = (TaskState.DONE, TaskState.CACHED, TaskState.JOURNALED)


class TaskRecord:
    """One distinct config's task, shared by every requester of its key.

    The scheduler keys records by the content-addressed cache key
    (:func:`repro.cache.config_key`), so N requesters of the same config —
    within one batch, across batches, or across threads — share a single
    record and hence a single simulation.  ``done`` is set exactly once,
    when the record reaches a terminal state; coalesced requesters block
    on it instead of resubmitting.
    """

    __slots__ = (
        "key",
        "cfg",
        "state",
        "payload",
        "error",
        "attempts",
        "wall_s",
        "worker_pid",
        "done",
        "future",
        "t_submit",
    )

    def __init__(self, key: str, cfg: "RunConfig"):
        self.key = key
        self.cfg = cfg
        self.state = TaskState.PENDING
        #: scalar result payload: {"elapsed_s", "phases", "comm_stats"}
        self.payload: Optional[Dict[str, Any]] = None
        #: terminal exception (FAILED: the simulator's; POISONED: ours)
        self.error: Optional[BaseException] = None
        #: worker crashes survived so far (bounded by ``max_retries``)
        self.attempts = 0
        #: wall-clock seconds of the successful execution (simulated only)
        self.wall_s: Optional[float] = None
        self.worker_pid: Optional[int] = None
        self.done = threading.Event()
        self.future = None
        self.t_submit: Optional[float] = None

    # -- results --------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """Whether this record carries a usable result payload."""
        return self.state in _RESULT_STATES

    def result(self, cfg: "RunConfig"):
        """Materialize a fresh :class:`RunResult` for one requester.

        Each requester gets its own result object (the payload dicts are
        copied), bound to the *requester's* config instance — bit-identical
        to what a serial :func:`repro.core.runner.run` call would return,
        because the payload stores exact floats.
        """
        if not self.ok:
            raise (self.error or RuntimeError(f"task {self.key} has no result"))
        from repro.core.config import RunResult

        p = self.payload
        return RunResult(
            config=cfg,
            elapsed_s=p["elapsed_s"],
            phases=dict(p["phases"]),
            comm_stats=dict(p["comm_stats"]),
        )

    def outcome(self, cfg: "RunConfig"):
        """:meth:`result` for a successful record, else its exception."""
        if self.ok:
            return self.result(cfg)
        from repro.sched.scheduler import SchedulerError

        return self.error or SchedulerError(f"task {self.key} lost")

    def describe(self) -> Dict[str, Any]:
        """Telemetry-friendly summary (key prefix, config, state, timing)."""
        c = self.cfg
        return {
            "key": self.key[:12],
            "machine": c.machine.name,
            "implementation": c.implementation,
            "cores": c.cores,
            "threads_per_task": c.threads_per_task,
            "box_thickness": c.box_thickness,
            "state": self.state.value,
            "attempts": self.attempts,
            "wall_s": self.wall_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        c = self.cfg
        return (
            f"<TaskRecord {self.key[:12]} {c.implementation}@{c.machine.name}"
            f" cores={c.cores} {self.state.value}>"
        )
