"""The scheduler's resumable journal: a run-cache directory, committed durably.

A journal is a :class:`~repro.cache.RunCache` directory: one line per
completed config in ``<root>/<key[:2]>.jsonl``, keyed by the
content-addressed cache key (:func:`repro.cache.config_key`), in the
cache's own line format, so ``RunCache(<journal dir>).get(cfg)`` reads
what the scheduler journaled. Because the key folds in the full config,
the machine spec and :data:`repro.cache.MODEL_VERSION`, entries
self-invalidate across model changes — a stale journal simply stops
matching.

Durable commit
--------------
:meth:`ShardedJournal.record` appends the line at once (one ``O_APPEND``
write, no fsync); :meth:`ShardedJournal.flush` is the commit, one
``fsync`` of every segment this handle appended to since the last
commit. A line this handle replays (:meth:`ShardedJournal.replay`) may
be one another process appended and has not committed yet, so a replay
hit marks its segment dirty too. The scheduler commits in ``collect``,
and serve commits before a reply that was not answered from memory, so
**a result is never surfaced to a caller before its line is durable**,
and a ``SIGKILL`` loses only lines whose results were never returned.
An append that fails (``ENOSPC``, ``EIO``, a short write) raises but
keeps its line pending: the next commit rewrites it after a newline, so
a torn fragment of the failed write cannot swallow it, and then fsyncs.
A commit that fails raises and keeps everything pending. Floats
round-trip exactly through JSON in CPython, so a journal replay is
bit-identical to the original simulation.

Paths
-----
A fresh path or a directory, ``X.jsonl`` included, is a journal
directory. An existing file at the path is a journal of the older flat
format (one JSON line per entry with ``"v": 1``): opening it imports its
entries into a directory at the same path once, and keeps the original
file beside it as ``X.jsonl.flat``. The import writes to
``X.jsonl.import`` and renames, so an interrupted import is redone and a
finished one never repeats. A journal directory of the older sharded
format has no line the segment reader can index; it replays cold once.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.cache import SHARD_PREFIX_CHARS, RunCache, _entry_line

__all__ = ["ShardedJournal"]


def _flat_entry(raw: bytes) -> Optional[Tuple[str, Dict[str, Any]]]:
    """``(key, payload)`` of one line of an old flat journal, or None."""
    try:
        doc = json.loads(raw)
        if doc.get("v") != 1:
            return None
        return doc["key"], {
            "elapsed_s": float(doc["elapsed_s"]),
            "phases": {str(k): float(v) for k, v in doc["phases"].items()},
            "comm_stats": {str(k): int(v) for k, v in doc["comm_stats"].items()},
        }
    except (ValueError, KeyError, TypeError, AttributeError):
        return None  # torn or foreign: it never replayed before either


def _import_flat(path: str) -> None:
    """Turn an old flat journal file at ``path`` into a journal directory."""
    staging, kept = path + ".import", path + ".flat"
    if os.path.isfile(path):
        shutil.rmtree(staging, ignore_errors=True)  # an interrupted import
        with ShardedJournal(staging) as store, open(path, "rb") as fh:
            for raw in fh:
                entry = _flat_entry(raw)
                if entry is not None and _hex_prefix(entry[0]):
                    store.record(*entry)
        os.rename(path, kept)
    if os.path.isdir(staging) and not os.path.exists(path) and os.path.isfile(kept):
        os.rename(staging, path)


def _hex_prefix(key: str) -> bool:
    prefix = str(key)[:SHARD_PREFIX_CHARS]
    return len(prefix) == SHARD_PREFIX_CHARS and all(
        c in "0123456789abcdef" for c in prefix
    )


class ShardedJournal(RunCache):
    """A run-cache directory whose handle commits its appends durably.

    Lookups are the cache's (:meth:`has_key`, :meth:`replay`,
    :meth:`get`); :meth:`record` appends a line and :meth:`flush`
    commits. Keys must be hex cache keys.
    """

    def __init__(self, root: str):
        root = str(root)
        _import_flat(root)
        super().__init__(root)
        self._commit_lock = threading.Lock()
        #: segments appended to or replayed from since the last commit
        self._dirty: set = set()
        #: lines appended since the last commit (not yet durable)
        self._uncommitted = 0
        #: ``(key, line)`` whose append failed; the next commit rewrites them
        self._retry: List[Tuple[str, bytes]] = []
        self._closed = False

    def counts(self) -> Dict[str, int]:
        """Telemetry: indexed entries, lines not yet durable, torn lines."""
        with self._lock:
            return {
                "entries": len(self._index),
                "pending": self._uncommitted,
                "torn": self.torn,
            }

    def record(self, key: str, payload: Dict[str, Any]) -> None:
        """Append one completed task's result fields; durable at the next commit.

        A failed append raises its ``OSError``; the line stays visible
        to lookups and pending for the next :meth:`flush`.
        """
        if not _hex_prefix(key):
            raise ValueError(f"journal keys must be hex digests, got {key!r}")
        line = _entry_line(key, {
            k: payload[k] for k in ("elapsed_s", "phases", "comm_stats")
        })
        with self._commit_lock:
            self._dirty.add(key[:SHARD_PREFIX_CHARS])
            self._uncommitted += 1
            try:
                self._append(key, line)
            except OSError:
                self._retry.append((key, line))
                with self._lock:
                    self._index[key] = line
                raise

    def replay(self, key: str) -> Optional[Dict[str, Any]]:
        """The cache's replay; a hit's segment is fsynced at the next commit.

        The line may be another handle's append that it has not committed
        yet, and the caller is about to surface it.
        """
        payload = super().replay(key)
        if payload is not None:
            with self._commit_lock:
                self._dirty.add(key[:SHARD_PREFIX_CHARS])
        return payload

    def flush(self) -> None:
        """Commit: rewrite failed appends, then fsync each dirty segment once."""
        with self._commit_lock:
            while self._retry:
                key, line = self._retry[0]
                self._append(key, line, lead=b"\n")
                self._retry.pop(0)
            for prefix in sorted(self._dirty):
                fd = os.open(self._segment_path(prefix), os.O_WRONLY | os.O_APPEND)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
                self._dirty.discard(prefix)
            self._uncommitted = 0

    def close(self) -> None:
        """Commit what is pending; further closes do nothing."""
        if not self._closed:
            self.flush()
            self._closed = True

    def __enter__(self) -> "ShardedJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
