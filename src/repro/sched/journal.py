"""Resumable JSONL journal of completed scheduler tasks.

One line per completed config, keyed by the content-addressed cache key
(:func:`repro.cache.config_key`).  Because the key already folds in the
full config, the machine spec and :data:`repro.cache.MODEL_VERSION`,
entries self-invalidate across model changes — a stale journal simply
stops matching.

Durability: group commit
------------------------
Appends are buffered and committed in groups — one ``write+flush+fsync``
per drain cycle instead of one per line (``flush_max_records`` /
``flush_interval`` bound how long a record may sit in the buffer).  The
scheduler preserves the invariant that **a result is never surfaced to a
caller before its record is durable**: it flushes the journal after its
drain loops settle and before ``map()`` assembles return values, so a
``SIGKILL`` loses only records whose results were never returned.  On
load, a truncated/corrupt trailing line (the torn tail of a batched
write) is skipped, never fatal, and corruption is tallied by kind
(``torn_lines`` / ``wrong_version_lines`` / ``ill_shaped_lines``) for
the telemetry summary.  A commit that raises (``ENOSPC``, ``EIO``)
keeps its records pending, and the next commit rewrites them after a
newline, so a torn fragment of the failed write cannot swallow the first
retried line.  Floats round-trip exactly through JSON in
CPython, so a journal replay is bit-identical to the original
simulation.

Sharded layout
--------------
:class:`ShardedJournal` spreads the same line format over per-prefix
files (``<root>/<key[:2]>.jsonl``, 256 shards keyed like the run
cache), loaded lazily per shard: resume is an O(shard) scan, and
concurrent schedulers holding disjoint shard leases (see
:mod:`repro.sched.lease`) never contend on one inode.  ``refresh()``
re-reads shards that grew on disk, making a peer scheduler's durable
progress visible.  :func:`open_journal` picks the layout from the path:
an existing file (or a ``.jsonl``/``.json`` suffix) means the flat
single-file journal, anything else the sharded one.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Journal", "ShardedJournal", "open_journal", "JOURNAL_VERSION"]

#: Journal line format version (bumped on incompatible payload changes).
JOURNAL_VERSION = 1

#: Group-commit bounds: a buffered record is committed after at most this
#: many pending lines / this many seconds, whichever comes first.
DEFAULT_FLUSH_MAX_RECORDS = 64
DEFAULT_FLUSH_INTERVAL = 0.25


def _encode_line(key: str, payload: Dict[str, Any]) -> str:
    doc = {
        "v": JOURNAL_VERSION,
        "key": key,
        "elapsed_s": payload["elapsed_s"],
        "phases": payload["phases"],
        "comm_stats": payload["comm_stats"],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def _decode_line(
    line: str, tallies: Dict[str, int]
) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Parse one journal line; tally (and skip) corruption by kind."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        # Torn trailing write after a kill — skip, never fatal.
        tallies["torn"] += 1
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("key"), str):
        tallies["ill_shaped"] += 1
        return None
    if doc.get("v") != JOURNAL_VERSION:
        tallies["wrong_version"] += 1
        return None
    try:
        payload = {
            "elapsed_s": float(doc["elapsed_s"]),
            "phases": {str(k): float(v) for k, v in doc["phases"].items()},
            "comm_stats": {
                str(k): int(v) for k, v in doc["comm_stats"].items()
            },
        }
    except (KeyError, TypeError, ValueError, AttributeError):
        tallies["ill_shaped"] += 1
        return None
    return doc["key"], payload


def _fresh_tallies() -> Dict[str, int]:
    return {"torn": 0, "wrong_version": 0, "ill_shaped": 0}


class Journal:
    """Append-only JSONL store of completed task payloads, keyed by config.

    Group commit: ``record`` buffers the serialized line and commits
    pending lines in one ``write+flush+fsync`` when ``flush_max_records``
    accumulate or ``flush_interval`` seconds pass; ``flush()`` commits
    explicitly (the scheduler calls it before surfacing results) and
    ``close()`` always flushes.  ``flush_max_records=1`` restores the
    old one-fsync-per-line behaviour (the benchmark baseline).
    """

    def __init__(
        self,
        path: str,
        flush_max_records: int = DEFAULT_FLUSH_MAX_RECORDS,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
    ):
        if flush_max_records < 1:
            raise ValueError(
                f"flush_max_records must be >= 1, got {flush_max_records}"
            )
        self.path = str(path)
        self.flush_max_records = int(flush_max_records)
        self.flush_interval = float(flush_interval)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        #: entries recovered from a previous (possibly killed) session
        self.entries: Dict[str, Dict[str, Any]] = {}
        self._tallies = _fresh_tallies()
        self._load()
        self._fh = open(self.path, "a", encoding="utf-8")
        self._pending: List[str] = []
        #: the last commit raised: its bytes may have landed torn
        self._failed = False
        self._last_flush = time.monotonic()
        self._lock = threading.Lock()

    # -- corruption telemetry -------------------------------------------------
    @property
    def torn_lines(self) -> int:
        """Lines that did not parse as JSON (torn batched writes)."""
        return self._tallies["torn"]

    @property
    def wrong_version_lines(self) -> int:
        """Well-formed lines from an incompatible journal version."""
        return self._tallies["wrong_version"]

    @property
    def ill_shaped_lines(self) -> int:
        """Parsed lines whose payload shape is unusable."""
        return self._tallies["ill_shaped"]

    @property
    def corrupt_lines(self) -> int:
        """All skipped lines (torn + wrong version + ill-shaped)."""
        return sum(self._tallies.values())

    def counts(self) -> Dict[str, int]:
        """Telemetry snapshot: entries, pending and corruption by kind."""
        with self._lock:
            return {
                "entries": len(self.entries),
                "pending": len(self._pending),
                **self._tallies,
            }

    # -- load -----------------------------------------------------------------
    def _load(self) -> None:
        try:
            fh = open(self.path, "r", encoding="utf-8")
        except OSError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                parsed = _decode_line(line, self._tallies)
                if parsed is None:
                    continue
                # Last write wins (duplicates are bit-identical anyway).
                self.entries[parsed[0]] = parsed[1]

    # -- lookup ---------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Payload for ``key`` from this or a previous session, or ``None``."""
        return self.entries.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def keys(self) -> Iterator[str]:
        return iter(self.entries)

    # -- append ---------------------------------------------------------------
    def record(self, key: str, payload: Dict[str, Any]) -> None:
        """Buffer one completed task's scalar payload for group commit.

        The record is immediately visible to ``get``/``in`` (the caller
        holds the result anyway); it becomes *durable* at the next group
        commit — which this call triggers itself once the pending buffer
        hits ``flush_max_records`` or has aged past ``flush_interval``.
        """
        line = _encode_line(key, payload)
        with self._lock:
            self._pending.append(line)
            self.entries[key] = {
                "elapsed_s": payload["elapsed_s"],
                "phases": dict(payload["phases"]),
                "comm_stats": dict(payload["comm_stats"]),
            }
            if (
                len(self._pending) >= self.flush_max_records
                or time.monotonic() - self._last_flush >= self.flush_interval
            ):
                self._flush_locked()

    def flush(self) -> None:
        """Commit every pending record durably (one write + one fsync)."""
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        self._last_flush = time.monotonic()
        if not self._pending or self._fh.closed:
            return
        blob = "".join(self._pending)
        if self._failed:
            blob = "\n" + blob  # end any torn fragment of the failed write
        self._failed = True
        self._fh.write(blob)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._failed = False
        self._pending = []

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._flush_locked()
                self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Shard:
    """One prefix's journal file: entries, pending lines, lazy handle."""

    __slots__ = (
        "path", "entries", "pending", "tallies", "fh", "disk_size", "failed",
    )

    def __init__(self, path: str):
        self.path = path
        self.entries: Dict[str, Dict[str, Any]] = {}
        #: (key, line) pairs buffered since the last commit
        self.pending: List[Tuple[str, str]] = []
        self.tallies = _fresh_tallies()
        self.fh = None
        #: bytes of the file consumed by the last (re)load
        self.disk_size = 0
        #: the last commit raised: its bytes may have landed torn
        self.failed = False

    def load(self) -> None:
        """(Re)read the whole shard file; overlay pending records.

        A full re-read keeps ``refresh`` correct under concurrent
        appenders: byte-offset tail reads could start mid-line when a
        peer's write interleaves with ours.  Shard files are small by
        construction (1/256th of the journal), so this stays cheap.
        """
        entries: Dict[str, Dict[str, Any]] = {}
        tallies = _fresh_tallies()
        size = 0
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    size += len(line.encode("utf-8"))
                    line = line.strip()
                    if not line:
                        continue
                    parsed = _decode_line(line, tallies)
                    if parsed is not None:
                        entries[parsed[0]] = parsed[1]
        except OSError:
            pass
        # Records buffered locally but not yet committed stay visible.
        for key, line in self.pending:
            parsed = _decode_line(line, _fresh_tallies())
            if parsed is not None:
                entries[key] = parsed[1]
        self.entries = entries
        self.tallies = tallies
        self.disk_size = size


class ShardedJournal:
    """A journal spread over 256 per-key-prefix JSONL files.

    Same line format and durability contract as :class:`Journal` (group
    commit per shard; ``flush`` commits every dirty shard with one fsync
    each), plus ``refresh()`` to pick up entries committed by concurrent
    scheduler processes writing *other* shards.  Keys must be hex cache
    keys (:func:`repro.cache.config_key` digests).
    """

    def __init__(
        self,
        root: str,
        flush_max_records: int = DEFAULT_FLUSH_MAX_RECORDS,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
    ):
        if flush_max_records < 1:
            raise ValueError(
                f"flush_max_records must be >= 1, got {flush_max_records}"
            )
        self.root = str(root)
        self.flush_max_records = int(flush_max_records)
        self.flush_interval = float(flush_interval)
        os.makedirs(self.root, exist_ok=True)
        self._shards: Dict[str, _Shard] = {}
        self._last_flush = time.monotonic()
        self._lock = threading.RLock()
        self._closed = False

    # -- shard plumbing -------------------------------------------------------
    @staticmethod
    def _prefix(key: str) -> str:
        from repro.cache import SHARD_PREFIX_CHARS

        prefix = str(key)[:SHARD_PREFIX_CHARS].lower()
        if not prefix or not all(c in "0123456789abcdef" for c in prefix):
            raise ValueError(
                f"sharded journal keys must be hex digests, got {key!r}"
            )
        return prefix

    def _shard(self, prefix: str) -> _Shard:
        shard = self._shards.get(prefix)
        if shard is None:
            shard = _Shard(os.path.join(self.root, f"{prefix}.jsonl"))
            shard.load()
            self._shards[prefix] = shard
        return shard

    def _on_disk_prefixes(self) -> List[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            name[:-6] for name in names if name.endswith(".jsonl")
        )

    def _load_all(self) -> None:
        for prefix in self._on_disk_prefixes():
            self._shard(prefix)

    # -- lookup ---------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._shard(self._prefix(key)).entries.get(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._shard(self._prefix(key)).entries

    def __len__(self) -> int:
        with self._lock:
            self._load_all()
            return sum(len(s.entries) for s in self._shards.values())

    def keys(self) -> Iterator[str]:
        with self._lock:
            self._load_all()
            out: List[str] = []
            for shard in self._shards.values():
                out.extend(shard.entries)
        return iter(out)

    def refresh(self) -> None:
        """Re-read shards whose files grew — a peer's committed progress.

        Unloaded on-disk shards are loaded; loaded shards are re-read
        only when their file size moved past what the last load consumed.
        Locally buffered (pending) records survive the re-read.
        """
        with self._lock:
            for prefix in self._on_disk_prefixes():
                shard = self._shards.get(prefix)
                if shard is None:
                    self._shard(prefix)
                    continue
                try:
                    size = os.path.getsize(shard.path)
                except OSError:
                    continue
                if size != shard.disk_size:
                    shard.load()

    # -- corruption telemetry -------------------------------------------------
    def _tally(self, kind: str) -> int:
        with self._lock:
            return sum(s.tallies[kind] for s in self._shards.values())

    @property
    def torn_lines(self) -> int:
        return self._tally("torn")

    @property
    def wrong_version_lines(self) -> int:
        return self._tally("wrong_version")

    @property
    def ill_shaped_lines(self) -> int:
        return self._tally("ill_shaped")

    @property
    def corrupt_lines(self) -> int:
        with self._lock:
            return sum(sum(s.tallies.values()) for s in self._shards.values())

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {"entries": 0, "pending": 0, **_fresh_tallies()}
            for shard in self._shards.values():
                out["entries"] += len(shard.entries)
                out["pending"] += len(shard.pending)
                for k, v in shard.tallies.items():
                    out[k] += v
            return out

    # -- append ---------------------------------------------------------------
    def record(self, key: str, payload: Dict[str, Any]) -> None:
        line = _encode_line(key, payload)
        with self._lock:
            shard = self._shard(self._prefix(key))
            shard.pending.append((key, line))
            shard.entries[key] = {
                "elapsed_s": payload["elapsed_s"],
                "phases": dict(payload["phases"]),
                "comm_stats": dict(payload["comm_stats"]),
            }
            if (
                len(shard.pending) >= self.flush_max_records
                or time.monotonic() - self._last_flush >= self.flush_interval
            ):
                self._flush_locked()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        self._last_flush = time.monotonic()
        for shard in self._shards.values():
            if not shard.pending:
                continue
            if shard.fh is None:
                shard.fh = open(shard.path, "a", encoding="utf-8")
            blob = "".join(line for _, line in shard.pending)
            if shard.failed:
                blob = "\n" + blob  # end any torn fragment of the failed write
            shard.failed = True
            shard.fh.write(blob)
            shard.fh.flush()
            os.fsync(shard.fh.fileno())
            shard.failed = False
            shard.pending = []
            shard.disk_size += len(blob.encode("utf-8"))

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            self._closed = True
            for shard in self._shards.values():
                if shard.fh is not None and not shard.fh.closed:
                    shard.fh.close()

    def __enter__(self) -> "ShardedJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_journal(path, **kwargs):
    """Open the right journal flavour for ``path``.

    An existing regular file — or a fresh path with a ``.jsonl``/``.json``
    suffix — is the flat single-file :class:`Journal` (the original CLI
    contract); an existing directory, or any other fresh path, is a
    :class:`ShardedJournal` root.  Keyword arguments (the group-commit
    bounds) pass through either way.
    """
    p = str(path)
    if os.path.isdir(p):
        return ShardedJournal(p, **kwargs)
    if os.path.isfile(p) or p.endswith((".jsonl", ".json")):
        return Journal(p, **kwargs)
    return ShardedJournal(p, **kwargs)
