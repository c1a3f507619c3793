"""Process-pool worker side of the scheduler (top-level, picklable).

Workers are plain processes running the same deterministic simulator as
the parent: a task's result depends only on its config, so executing in a
pool is bit-identical to executing serially.  Each worker configures its
own :mod:`repro.cache` handle on the shared cache directory (writes are
atomic, so concurrent workers are safe) and ships per-task *deltas* of
its hit/miss/store counters back to the parent for aggregate reporting.

Fault injection: a payload carrying ``"crash": True`` makes the worker
die via ``os._exit`` *before* touching the simulator.  The scheduler's
``fault_injector`` hook sets the flag per (config, attempt); tests and
the CI crash-retry smoke use it to exercise the broken-pool recovery
path deterministically.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any, Dict, List, Sequence, Union

__all__ = ["init_worker", "execute_task", "execute_chunk", "CRASH_EXIT_CODE"]

#: Exit code of a deliberately crashed worker (fault injection).
CRASH_EXIT_CODE = 78


def init_worker(cache_dir) -> None:
    """Pool initializer: give the worker its own run-cache handle.

    ``cache_dir=None`` removes any fork-inherited cache so the worker's
    behaviour does not depend on the parent's module state.
    """
    from repro import cache

    cache.configure(cache_dir)


def _execute_one(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one config; return its scalar result payload.

    The returned floats are the exact simulator outputs (pickle round-trips
    floats losslessly).
    """
    from repro import cache
    from repro.core.runner import run

    cfg = payload["cfg"]
    cache.adopt_key(cfg, payload["key"])
    before = cache.stats()
    t0 = time.perf_counter()
    result = run(cfg)
    wall_s = time.perf_counter() - t0
    after = cache.stats()
    return {
        "key": payload["key"],
        "elapsed_s": result.elapsed_s,
        "phases": dict(result.phases),
        "comm_stats": dict(result.comm_stats),
        "wall_s": wall_s,
        "pid": os.getpid(),
        "cache_delta": {k: after[k] - before[k] for k in after},
    }


def execute_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Single-task entry point (kept for solo/compat submissions).

    Simulator exceptions propagate to the parent through the future — the
    scheduler records them as deterministic task failures, not crashes.
    """
    if payload.get("crash"):
        # Deliberate worker death (fault injection): bypasses Python
        # exception handling entirely, exactly like a segfaulting worker.
        os._exit(CRASH_EXIT_CODE)
    return _execute_one(payload)


def _picklable(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a stand-in.

    A chunk outcome travels back through the pool as data, so an
    unpicklable simulator exception must be replaced before the return
    pickle would break the whole chunk future.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def execute_chunk(
    items: Sequence[Union[bytes, Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Chunked entry point: run several pre-pickled task payloads.

    Each item is either the parent's once-pickled ``{"cfg", "key"}`` blob
    (unpickled here, so the parent never re-serializes a payload across
    retries) or a small marker dict (fault injection).  Per-task simulator
    exceptions come back *as data* (``{"key", "error"}``) so one failing
    config stays a task failure instead of poisoning its chunk-mates;
    only a genuine worker death breaks the future.
    """
    out: List[Dict[str, Any]] = []
    for item in items:
        payload = pickle.loads(item) if isinstance(item, bytes) else item
        if payload.get("crash"):
            os._exit(CRASH_EXIT_CODE)
        try:
            out.append(_execute_one(payload))
        except BaseException as exc:
            out.append({"key": payload.get("key"), "error": _picklable(exc)})
    return out
