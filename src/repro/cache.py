"""Content-addressed persistent cache for simulation run results.

The experiment sweeps behind the paper's figures re-simulate hundreds of
:class:`~repro.core.config.RunConfig` points, and many configs recur across
figures (e.g. the best Lens configs appear in fig9, fig11 *and* sec5e).
Because the simulator is deterministic, a run's outcome is a pure function
of its configuration — so each distinct config needs to be simulated **once
per model version** and can be replayed from disk afterwards.

Cache key
---------
``sha256`` over a canonical JSON rendering of

* the full :class:`RunConfig` (every field, including the nested
  :class:`~repro.machines.spec.MachineSpec` — node, interconnect and GPU
  calibration constants), and
* :data:`MODEL_VERSION`, a hand-bumped tag naming the performance model's
  behaviour generation.

Any change to a machine's calibrated constants changes the key directly;
any change to the *model code* (engine scheduling, implementation logic,
cost formulas) must bump :data:`MODEL_VERSION`, which invalidates every
prior entry at once (old entries are simply never addressed again;
``prune`` drops them). Floats are rendered with ``repr`` (shortest
round-trip), so keys are stable across processes and sessions.

Entries store ``elapsed_s``/``phases``/``comm_stats`` as plain JSON floats
(exact round-trip in CPython), so a cache *hit reproduces the uncached
RunResult bit-for-bit*. Runs that carry non-scalar artifacts (functional
fields, tracers) bypass the cache.

The cache is **opt-in**: nothing is read or written unless
:func:`configure` installs an active cache (the CLI does this for
``experiment`` runs unless ``--no-cache``).

On-disk layout
--------------
Entries are JSON lines in 256 append-only segment files named by the
cache-key prefix, ``<dir>/<key[:2]>.jsonl``. Each line starts with its
``key`` and carries the payload (``model_version``, ``elapsed_s``,
``phases``, ``comm_stats``, machine/implementation/cores). A store is
one ``os.write`` of the whole line to the segment opened with
``O_APPEND``: no file is created per entry and nothing is renamed or
fsynced (the cache is a memo; the journal is the durable record). The
layout assumes a local Linux file system, where one ``O_APPEND`` write
is never interleaved with another appender's, so scheduler workers,
serve threads and concurrent CLI processes can share a directory.

A handle indexes segments lazily, keeping each entry's raw line bytes
(decoded only on a hit), and on an index miss reads just the bytes
appended since its last look, up to the last complete line. A torn,
corrupt or foreign line is a miss, never a crash, and re-storing the
key appends a line that supersedes it. Entries of the older
one-file-per-entry layouts (``<dir>/<key>.json`` and
``<dir>/<key[:2]>/<key>.json``) are never read — a one-time cold
regeneration — and ``prune`` deletes them.

Key memoization
---------------
Hashing is memoized: :func:`config_key` caches the digest on the
(frozen, hence immutable) :class:`RunConfig` instance, and the
machine-spec canonical form — by far the largest part of the document —
is cached on each (frozen) :class:`MachineSpec` and precomputed for the
whole registry at catalog load via :func:`warm_machine_digests`. Probing
a warm batch therefore hashes each config instance at most once.
"""

from __future__ import annotations

import dataclasses
import enum
import errno
import glob
import hashlib
import json
import logging
import os
import tempfile
import threading
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.config import RunConfig, RunResult

__all__ = [
    "MODEL_VERSION",
    "DEFAULT_CACHE_DIR",
    "SHARD_PREFIX_CHARS",
    "RunCache",
    "cacheable",
    "config_key",
    "configure",
    "active_cache",
    "stats",
    "merge_stats",
    "reset_stats",
    "warm_machine_digests",
]

#: Behaviour generation of the performance model. Bump whenever a code
#: change (engine, implementations, cost formulas) alters any simulated
#: result; every cached entry from older versions becomes unaddressable.
MODEL_VERSION = "pr3-obs-copy-engines-1"

#: Default on-disk location (relative to the working directory) used by the
#: CLI; override with ``--cache-dir`` or ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Hex characters of the cache key naming an entry's shard directory
#: (2 -> 256 shards). Shared by the sharded journal and the lease fabric.
SHARD_PREFIX_CHARS = 2


def _canonical(obj: Any, path: str = "config") -> Any:
    """Recursively convert to JSON-stable primitives (sorted, tuple->list).

    ``path`` names the field being rendered so a non-canonicalizable value
    raises with its exact location (e.g. ``config.noise.knobs[2]``), not
    just the offending type.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Spec classes may declare _KEY_OMIT_DEFAULTS: fields added after
        # entries already existed on disk are left out of the canonical
        # form while at their original-behaviour defaults, so old keys
        # stay addressable without a model-version bump (same precedent
        # as config seed/noise in :func:`config_key`).
        omit = getattr(type(obj), "_KEY_OMIT_DEFAULTS", None) or {}
        return {
            f.name: _canonical(getattr(obj, f.name), f"{path}.{f.name}")
            for f in dataclasses.fields(obj)
            if not (f.name in omit and getattr(obj, f.name) == omit[f.name])
        }
    if isinstance(obj, dict):
        return {
            str(k): _canonical(v, f"{path}[{str(k)!r}]")
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, enum.Enum):
        return _canonical(obj.value, path)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)  # shortest round-trip, platform-stable
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__} at {path} for the cache key"
    )


def _machine_canonical(spec: Any) -> Any:
    """Canonical form of a machine spec, memoized on the (frozen) instance.

    The spec dominates the canonical document (~50 calibrated constants
    across node/interconnect/GPU), is immutable, and is shared by every
    config of a sweep — so its rendering is computed once per instance and
    cached via ``object.__setattr__`` (legal on frozen dataclasses). The
    memo is never mutated afterwards, only serialized.
    """
    memo = spec.__dict__.get("_canonical_memo")
    if memo is None:
        memo = _canonical(spec, "config.machine")
        try:
            object.__setattr__(spec, "_canonical_memo", memo)
        except (AttributeError, TypeError):  # slotted/odd spec: skip memo
            pass
    return memo


def warm_machine_digests(specs) -> None:
    """Precompute canonical forms for a registry of machine specs.

    Called at :mod:`repro.machines.catalog` import, so by the time any
    sweep hashes its first config every registry machine's canonical form
    is already cached and :func:`config_key` only renders the few scalar
    config fields.
    """
    for spec in specs:
        _machine_canonical(spec)


def config_key(cfg: "RunConfig", model_version: Optional[str] = None) -> str:
    """Stable content hash of (config, machine spec, model version).

    The perturbation fields (``seed``, ``noise``) enter the key only when
    set: a noiseless config (both ``None``) hashes exactly as it did
    before the perturbation layer existed, so prior cache entries stay
    addressable without a model-version bump.

    The digest is memoized on the (frozen) config instance: every
    dedup/probe/journal/cache touch of the same instance reuses one
    hash. ``RunConfig.with_()`` builds a fresh instance, so the memo can
    never go stale; a ``model_version`` override bypasses a mismatched
    memo and re-memoizes under the new version.
    """
    if model_version is None:
        model_version = MODEL_VERSION  # dynamic lookup: bumps take effect
    memo = cfg.__dict__.get("_key_memo") if hasattr(cfg, "__dict__") else None
    if memo is not None and memo[0] == model_version:
        return memo[1]
    canon = {}
    # config_key renders the config's fields itself (to splice in the
    # memoized machine canonical form), so the _KEY_OMIT_DEFAULTS
    # contract honored by _canonical for nested specs must be honored
    # here too: fields added after entries already existed on disk stay
    # out of the canonical form while at their original defaults.
    omit = getattr(type(cfg), "_KEY_OMIT_DEFAULTS", None) or {}
    for f in dataclasses.fields(cfg):
        if f.name in omit and getattr(cfg, f.name) == omit[f.name]:
            continue
        if f.name == "machine":
            canon["machine"] = _machine_canonical(cfg.machine)
        else:
            canon[f.name] = _canonical(getattr(cfg, f.name), f"config.{f.name}")
    if canon.get("seed") is None and canon.get("noise") is None:
        canon.pop("seed", None)
        canon.pop("noise", None)
    doc = {"model_version": model_version, "config": canon}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    try:
        object.__setattr__(cfg, "_key_memo", (model_version, key))
    except (AttributeError, TypeError):  # non-dataclass stand-in: skip memo
        pass
    return key


def cacheable(cfg: "RunConfig") -> bool:
    """Whether a config's result is scalar-only (cache-representable)."""
    return not cfg.functional and not cfg.trace


#: Every segment line starts with this, so the key a line was stored
#: under is read from its first bytes without parsing the JSON.
_KEY_HEAD = b'{"key":"'

#: Counters kept per handle (and merged across scheduler workers).
_COUNTERS = ("hits", "misses", "stores", "write_errors")

log = logging.getLogger("repro.cache")


def _decode(line: Optional[bytes]) -> Optional[dict]:
    """A line's payload when it is a current-version entry, else None."""
    if line is None:
        return None
    try:
        payload = json.loads(line)
    except ValueError:  # torn, fused or garbage bytes (incl. bad UTF-8)
        return None
    if not isinstance(payload, dict) or (
        payload.get("model_version") != MODEL_VERSION
    ):
        # Defense in depth: the version is part of the key, so this only
        # triggers on a corrupted/forged entry.
        return None
    return payload


class RunCache:
    """A directory of content-addressed run results in append-only segments.

    Entries are JSON lines in ``<dir>/<key[:2]>.jsonl``. A handle keeps
    one in-memory index of raw lines by key, filled lazily: on an index
    miss it reads only the bytes appended to that key's segment since
    its last look, so it sees entries other processes stored after it
    opened. One lock guards the index (the serve daemon shares a handle
    between threads).
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.hits = self.misses = self.stores = self.write_errors = 0
        os.makedirs(self.directory, exist_ok=True)
        self._index: Dict[str, bytes] = {}
        #: bytes of each segment consumed so far (always a line boundary)
        self._offsets: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._warned = False

    def _segment_path(self, prefix: str) -> str:
        return os.path.join(self.directory, f"{prefix}.jsonl")

    def _segment_prefixes(self):
        """Prefixes of the segment files on disk."""
        pattern = os.path.join(self.directory, "?" * SHARD_PREFIX_CHARS + ".jsonl")
        return [os.path.basename(p)[:SHARD_PREFIX_CHARS] for p in glob.glob(pattern)]

    def _read_lines(self, prefix: str, offset: int, index: dict) -> int:
        """Index a segment's complete lines from ``offset``; returns the new offset.

        A peer's line still being written (no ``\\n`` yet) is left for a
        later read. Later lines win, so a re-stored key supersedes its
        corrupt predecessor.
        """
        try:
            with open(self._segment_path(prefix), "rb") as fh:
                fh.seek(offset)
                tail = fh.read()
        except OSError:
            return offset
        end = tail.rfind(b"\n") + 1
        head = len(_KEY_HEAD)
        for line in tail[:end].split(b"\n"):
            if line.startswith(_KEY_HEAD):
                key = line[head : line.find(b'"', head)]
                index[key.decode("ascii", "replace")] = line
        return offset + end

    def _refresh(self, prefix: str) -> None:
        """Catch the index up with a segment's new lines (lock held)."""
        self._offsets[prefix] = self._read_lines(
            prefix, self._offsets.get(prefix, 0), self._index
        )

    def _line(self, key: str) -> Optional[bytes]:
        """The raw entry line stored for ``key``, or None."""
        with self._lock:
            line = self._index.get(key)
            if line is None:
                self._refresh(key[:SHARD_PREFIX_CHARS])
                line = self._index.get(key)
        return line

    # -- lookup -------------------------------------------------------------
    def has_key(self, key: str) -> bool:
        """Existence probe by key — nothing decoded, no counter traffic."""
        return self._line(key) is not None

    def warm_keys(self, keys) -> set:
        """The subset of ``keys`` with an entry on disk (batch probe).

        Existence only, like :meth:`has_key`: the serve daemon splits a
        sweep request into warm/cold halves with it.
        """
        return {k for k in keys if self.has_key(k)}

    def probe_keys(self, keys) -> int:
        """How many of ``keys`` have an entry (``sweep --dry-run`` split)."""
        return len(self.warm_keys(keys))

    def get(
        self, cfg: "RunConfig", record_miss: bool = True
    ) -> Optional["RunResult"]:
        """Return the cached result for ``cfg``, or ``None`` on a miss.

        ``record_miss=False`` makes the lookup a *probe*: a miss is not
        charged to the counters. The scheduler uses this for its parent-side
        short-circuit check — when the probe misses, the worker that ends up
        simulating the config performs (and counts) the authoritative
        lookup, so misses are counted exactly once. Hits are always counted.
        """
        if not cacheable(cfg):
            return None
        from repro.core.config import RunResult

        payload = _decode(self._line(config_key(cfg)))
        try:
            result = RunResult(
                config=cfg,
                elapsed_s=float(payload["elapsed_s"]),
                phases={k: float(v) for k, v in payload["phases"].items()},
                comm_stats={k: int(v) for k, v in payload["comm_stats"].items()},
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            # No entry (payload None), or a corrupt, torn, foreign or
            # wrong-shape one: a plain miss, never a crash — the run is
            # re-simulated and a fresh line appended.
            self.misses += record_miss
            return None
        self.hits += 1
        return result

    def put(self, cfg: "RunConfig", result: "RunResult") -> bool:
        """Append ``result`` to its segment; False when nothing was stored.

        One ``O_APPEND`` write of the whole line, no fsync (see the
        module docstring). A failed write (disk full, I/O error,
        read-only mount) is counted in ``write_errors`` and logged once
        per handle, never raised: the caller's result just is not
        memoized.
        """
        if not cacheable(cfg):
            return False
        key = config_key(cfg)
        doc = {
            "key": key,  # first: segment readers index lines by this head
            "model_version": MODEL_VERSION,
            "machine": cfg.machine.name,
            "implementation": cfg.implementation,
            "cores": cfg.cores,
            "elapsed_s": result.elapsed_s,
            "phases": dict(result.phases),
            "comm_stats": dict(result.comm_stats),
        }
        line = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        prefix = key[:SHARD_PREFIX_CHARS]
        try:
            flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
            fd = os.open(self._segment_path(prefix), flags, 0o666)
            try:
                data = line + b"\n"
                if os.write(fd, data) < len(data):
                    # Terminate the torn line so only this entry is lost,
                    # not the next one appended after it.
                    os.write(fd, b"\n")
                    raise OSError(errno.EIO, f"short write to {prefix}.jsonl")
            finally:
                os.close(fd)
        except OSError as exc:
            self.write_errors += 1
            if not self._warned:
                self._warned = True
                log.warning("run cache %s: write failed (%s); results are "
                            "not memoized", self.directory, exc)
            return False
        with self._lock:
            self._index[key] = line
        self.stores += 1
        return True

    # -- maintenance --------------------------------------------------------
    def __len__(self) -> int:
        """Distinct entry keys across all segments."""
        with self._lock:
            for prefix in self._segment_prefixes():
                self._refresh(prefix)
            return len(self._index)

    def prune(self) -> int:
        """Drop stale and unreadable entries; returns entries removed.

        Each segment is rewritten atomically (temp file + ``os.replace``)
        with the last line of every key whose entry decodes under the
        current :data:`MODEL_VERSION`; a line a peer appends meanwhile is
        lost (a later miss). Entries of the one-file-per-entry layouts,
        which lookups never read, are deleted.
        """
        removed = 0
        with self._lock:
            self._index.clear()
            self._offsets.clear()
            for prefix in self._segment_prefixes():
                lines: Dict[str, bytes] = {}
                self._read_lines(prefix, 0, lines)
                keep = [ln for ln in lines.values() if _decode(ln) is not None]
                removed += len(lines) - len(keep)
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        fh.write(b"".join(ln + b"\n" for ln in keep))
                    os.replace(tmp, self._segment_path(prefix))
                except BaseException:
                    os.unlink(tmp)
                    raise
        shards = os.path.join(self.directory, "?" * SHARD_PREFIX_CHARS)
        legacy = glob.glob(os.path.join(self.directory, "*.json"))
        legacy += glob.glob(os.path.join(shards, "*.json"))
        for path in legacy:
            os.unlink(path)
        removed += len(legacy)
        for shard in glob.glob(shards + os.sep):
            try:
                os.rmdir(shard)
            except OSError:  # holds foreign files: leave it
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        """Hit/miss/store/write-error counters since construction."""
        return {name: getattr(self, name) for name in _COUNTERS}


#: The process-wide cache consulted by :func:`repro.core.runner.run`.
_active: Optional[RunCache] = None


def configure(directory: Optional[str]) -> Optional[RunCache]:
    """Install (or, with ``None``, remove) the process-wide run cache."""
    global _active
    _active = RunCache(directory) if directory is not None else None
    return _active


def active_cache() -> Optional[RunCache]:
    """The currently installed cache, if any."""
    return _active


def stats() -> Dict[str, int]:
    """Counters of the active cache (zeros when no cache is installed)."""
    if _active is None:
        return dict.fromkeys(_COUNTERS, 0)
    return _active.stats()


def merge_stats(extra: Dict[str, int]) -> None:
    """Fold a worker's counters into the active cache's (process pools)."""
    if _active is None:
        return
    for name in _COUNTERS:
        setattr(_active, name, getattr(_active, name) + int(extra.get(name, 0)))


def reset_stats() -> None:
    """Zero the active cache's counters."""
    if _active is not None:
        for name in _COUNTERS:
            setattr(_active, name, 0)
