"""Process-pool worker side of the scheduler (top-level, picklable).

Workers are plain processes running the same deterministic simulator as
the parent: a task's result depends only on its config, so executing in a
pool is bit-identical to executing serially.  Each worker configures its
own :mod:`repro.cache` handle on the shared cache directory (writes are
atomic, so concurrent workers are safe) and ships per-task *deltas* of
its hit/miss/store counters back to the parent for aggregate reporting.

A chunk travels as one pickle (:func:`pack_chunk`) of a list of
``{"cfg", "key"}`` items, the key as its 32 raw digest bytes.  Configs
are written as their field values only, and pickle's memo writes what
the chunk's configs share (machine, noise spec) once.

Fault injection: a chunk item carrying ``"crash": True`` makes the worker
die via ``os._exit`` *before* touching the simulator.  The scheduler's
``fault_injector`` hook sets the flag per (config, attempt); tests and
the CI crash-retry smoke use it to exercise the broken-pool recovery
path deterministically.
"""

from __future__ import annotations

import dataclasses
import io
import os
import pickle
import time
from typing import Any, Dict, List

from repro.core.config import RunConfig

__all__ = ["init_worker", "pack_chunk", "execute_chunk", "CRASH_EXIT_CODE"]

#: Exit code of a deliberately crashed worker (fault injection).
CRASH_EXIT_CODE = 78


def init_worker(cache_dir) -> None:
    """Pool initializer: give the worker its own run-cache handle.

    ``cache_dir=None`` removes any fork-inherited cache so the worker's
    behaviour does not depend on the parent's module state.
    """
    from repro import cache

    cache.configure(cache_dir)


#: A config's state, field by field: the order its ``__init__`` fills
#: ``__dict__`` in.  Field names are interned, as unpickled keys are.
_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _config(values: tuple) -> RunConfig:
    """Rebuild a config from its field values (see :class:`_ChunkPickler`).

    The same object the default unpickling builds: a bare instance whose
    ``__dict__`` is the pickled state.
    """
    cfg = RunConfig.__new__(RunConfig)
    cfg.__dict__.update(zip(_FIELDS, values))
    return cfg


class _ChunkPickler(pickle.Pickler):
    """Pickles each config as its field values, without the names."""

    def reducer_override(self, obj):
        if type(obj) is RunConfig:
            state = obj.__getstate__()  # the key memos stay behind
            if tuple(state) == _FIELDS:
                return _config, (tuple(state.values()),)
        return NotImplemented


def pack_chunk(items: List[Dict[str, Any]]) -> bytes:
    """Pickle one chunk's item list, as :func:`execute_chunk` takes it."""
    buf = io.BytesIO()
    _ChunkPickler(buf, pickle.HIGHEST_PROTOCOL).dump(items)
    return buf.getvalue()


def _execute_one(cfg: RunConfig, key: str) -> Dict[str, Any]:
    """Simulate one config; return its scalar result payload.

    The returned floats are the exact simulator outputs (pickle round-trips
    floats losslessly).
    """
    from repro import cache
    from repro.core.runner import run

    cache.adopt_key(cfg, key)
    before = cache.stats()
    t0 = time.perf_counter()
    result = run(cfg)
    wall_s = time.perf_counter() - t0
    after = cache.stats()
    return {
        "key": key,
        "elapsed_s": result.elapsed_s,
        "phases": dict(result.phases),
        "comm_stats": dict(result.comm_stats),
        "wall_s": wall_s,
        "pid": os.getpid(),
        "cache_delta": {k: after[k] - before[k] for k in after},
    }


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


def execute_chunk(blob: bytes) -> List[Dict[str, Any]]:
    """Chunked entry point: run one chunk of tasks.

    ``blob`` is the parent's :func:`pack_chunk` of the whole chunk,
    unpickled here once.  Per-task simulator exceptions come back *as
    data* (``{"key", "error"}``) so one failing config stays a task
    failure instead of poisoning its chunk-mates; only a genuine worker
    death breaks the future.
    """
    out: List[Dict[str, Any]] = []
    for item in pickle.loads(blob):
        if item.get("crash"):
            # Deliberate worker death (fault injection): bypasses Python
            # exception handling entirely, exactly like a segfaulting
            # worker.
            os._exit(CRASH_EXIT_CODE)
        key = item["key"].hex()
        try:
            out.append(_execute_one(item["cfg"], key))
        except BaseException as exc:
            out.append({"key": key, "error": _picklable(exc)})
    return out
