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
fields, tracers) bypass :meth:`RunCache.get`/:meth:`RunCache.put`.

A traced config may instead hold a *summary entry*
(:meth:`RunCache.get_summary`/:meth:`RunCache.put_summary`): the same
line under the traced config's own key, plus ``overlap``, the run's
:class:`~repro.obs.metrics.OverlapMetrics` as ``to_dict`` renders it.
The timeline itself is never stored. Callers that need a traced run's
numbers but not its timeline read them through
:func:`repro.core.runner.overlap_summary`; ``run()`` on a traced config
still simulates and returns its tracer.

The cache is **opt-in**: nothing is read or written unless
:func:`configure` installs an active cache (the CLI does this for
``experiment`` runs unless ``--no-cache``).

On-disk layout
--------------
Entries are JSON lines in 256 append-only segment files named by the
cache-key prefix, ``<dir>/<key[:2]>.jsonl``. Each line starts with its
``key`` and carries the payload (``model_version``, ``elapsed_s``,
``phases``, ``comm_stats``, machine/implementation/cores, and
``overlap`` on a summary entry). A store is
one ``os.write`` of the whole line to the segment opened with
``O_APPEND``: no file is created per entry and nothing is renamed. A
plain cache never fsyncs: it is a memo. The scheduler's journal
(:class:`repro.sched.journal.ShardedJournal`) is a directory of the same
segments whose handle adds a durable commit, an fsync of every segment
it appended to, before results are surfaced. The
layout assumes a local Linux file system, where one ``O_APPEND`` write
is never interleaved with another appender's, so scheduler workers,
serve threads and concurrent CLI processes can share a directory.

A handle indexes segments lazily, keeping each entry's raw line bytes
(decoded only on a hit), and on an index miss reads just the bytes
appended since its last look, up to the last complete line; a segment
whose size has not changed since then, or that grew only by the handle's
own stores, is not opened again. A complete line that does not start
with its key or end with its closing brace is counted in ``torn`` and
skipped; any other corrupt or foreign line is a miss, never a crash,
and re-storing the key appends a line that supersedes it. Entries of the older
one-file-per-entry layouts (``<dir>/<key>.json`` and
``<dir>/<key[:2]>/<key>.json``) are never read — a one-time cold
regeneration — and ``prune`` deletes them.

Key memoization
---------------
Hashing is memoized twice over. :func:`config_key` caches the digest on
the (frozen, hence immutable) :class:`RunConfig` instance, so probing a
warm batch hashes each config instance at most once. And every spec
(:class:`KeyMemo` subclasses: machine, node, interconnect, GPU and noise
specs) caches its canonical JSON *text* on the instance — the machine's
is by far the largest part of the document, and it is precomputed for
the whole registry at catalog load via :func:`warm_machine_digests`. A
key then renders only the config's ~20 own fields, from a per-class
field plan with an exact-type fast path for plain values, and splices
the spec texts in; the bytes hashed are those of the generic
:func:`_canonical` rendering encoded with ``json.dumps(doc,
sort_keys=True, separators=(",", ":"))``.

The memos are never pickled (:meth:`KeyMemo.__getstate__`): a scheduler
chunk pickles its configs' whole state, so a worker receives each config
bare and adopts the key the parent derived (:func:`adopt_key`).
"""

from __future__ import annotations

import dataclasses
import enum
import errno
import glob
import hashlib
import json
import logging
import operator
import os
import tempfile
import threading
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.config import RunConfig, RunResult

__all__ = [
    "MODEL_VERSION",
    "DEFAULT_CACHE_DIR",
    "KeyMemo",
    "SHARD_PREFIX_CHARS",
    "RunCache",
    "cacheable",
    "config_key",
    "configure",
    "active_cache",
    "adopt_key",
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

#: Hex characters of the cache key naming an entry's segment file
#: (2 -> 256 segments). Shared by the journal and the lease fabric.
SHARD_PREFIX_CHARS = 2


#: Instance attributes holding key memos: a spec's canonical JSON text
#: and a config's ``(model_version, key)``. Never pickled (see KeyMemo).
_TEXT_MEMO = "_key_text"
_KEY_MEMO = "_key_memo"
_MEMOS = (_TEXT_MEMO, _KEY_MEMO)


class KeyMemo:
    """Mixin for frozen dataclasses whose cache-key renderings are memoized.

    Subclassing it marks a class as immutable all the way down (scalars,
    tuples, other KeyMemo specs), which is what makes memoizing its
    canonical text on the instance safe. The memos stay out of pickled
    state: a scheduler chunk pickles its configs' whole state, and a
    memo there would only add bytes to every config it carries.
    """

    __slots__ = ()

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in _MEMOS}


def _canonical(obj: Any, path: str = "config") -> Any:
    """Recursively convert to JSON-stable primitives (sorted, tuple->list).

    ``path`` names the field being rendered so a non-canonicalizable value
    raises with its exact location (e.g. ``config.noise.knobs[2]``), not
    just the offending type.
    """
    t = type(obj)
    if t is str or t is int or t is bool or obj is None:
        return obj
    if t is float:
        return repr(obj)
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


#: The key document's encoder: ``json.dumps(doc, sort_keys=True,
#: separators=(",", ":"))``, built once.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _seq_text(items) -> str:
    return "[" + ",".join([_PLAIN[type(v)](v) for v in items]) + "]"


#: JSON text of a *plain* value, by exact type: the bytes the encoder
#: writes for its canonical form (a float's is its ``repr`` string).
#: A tuple is plain when its items are; a non-plain item raises
#: KeyError. Subclasses (``str`` enums, NumPy floats) miss and take the
#: generic :func:`_canonical` path, which renders them as it always has.
_PLAIN = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    float: lambda v: f'"{v!r}"',
    type(None): lambda v: "null",
    tuple: _seq_text,
}

#: Marks a field without an omitted default in a field plan.
_KEEP = object()

#: Per-class field plans, built once: a getter of every field value,
#: and ``('"name":', name, omitted default or _KEEP)`` per field, both in
#: the encoder's sorted key order.
_PLANS: Dict[type, tuple] = {}


def _field_plan(cls: type) -> tuple:
    plan = _PLANS.get(cls)
    if plan is None:
        omit = getattr(cls, "_KEY_OMIT_DEFAULTS", None) or {}
        names = sorted(f.name for f in dataclasses.fields(cls))
        if len(names) > 1:
            getter = operator.attrgetter(*names)
        else:  # attrgetter of one name returns the bare value, not a tuple
            getter = lambda o: tuple(getattr(o, n) for n in names)  # noqa: E731
        plan = _PLANS[cls] = (getter, tuple(
            (_encode(name) + ":", name, omit.get(name, _KEEP)) for name in names
        ))
    return plan


def _fields_text(obj: Any, path: str, skip=()) -> str:
    """Canonical JSON text of a dataclass's fields, less ``skip``.

    Byte for byte ``_encode(_canonical(obj, path))``: fields in sorted
    order, ``_KEY_OMIT_DEFAULTS`` honored, plain values rendered
    directly, KeyMemo specs from their memo, anything else through
    :func:`_canonical` (which keeps the error paths).
    """
    parts = []
    getter, fields = _field_plan(type(obj))
    for (head, name, omit), value in zip(fields, getter(obj)):
        if (omit is not _KEEP and value == omit) or name in skip:
            continue
        render = _PLAIN.get(type(value))
        if render is not None:
            try:
                parts.append(head + render(value))
                continue
            except KeyError:  # a tuple holding a non-plain item
                pass
        if isinstance(value, KeyMemo):
            parts.append(head + _spec_text(value, f"{path}.{name}"))
        else:
            parts.append(head + _encode(_canonical(value, f"{path}.{name}")))
    return "{" + ",".join(parts) + "}"


def _spec_text(spec: Any, path: str) -> str:
    """Canonical JSON text of a spec, memoized on the (frozen) instance.

    The machine spec dominates the key document (~50 calibrated constants
    across node/interconnect/GPU), is immutable, and is shared by every
    config of a sweep; nested specs that ``dataclasses.replace`` leaves
    shared keep their memo too, so a derived machine renders only what
    changed. The memo is set via ``object.__setattr__`` (legal on frozen
    dataclasses) and never mutated afterwards.
    """
    text = spec.__dict__.get(_TEXT_MEMO)
    if text is None:
        text = _fields_text(spec, path)
        object.__setattr__(spec, _TEXT_MEMO, text)
    return text


def warm_machine_digests(specs) -> None:
    """Precompute canonical texts for a registry of machine specs.

    Called at :mod:`repro.machines.catalog` import, so by the time any
    sweep hashes its first config every registry machine's text is
    already cached and :func:`config_key` only renders the few scalar
    config fields.
    """
    for spec in specs:
        _spec_text(spec, "config.machine")


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
    memo = cfg.__dict__.get(_KEY_MEMO) if hasattr(cfg, "__dict__") else None
    if memo is not None and memo[0] == model_version:
        return memo[1]
    # The perturbation fields drop out together, and only when both are
    # None (a null NoiseSpec still enters the key).
    if getattr(cfg, "seed", None) is None and getattr(cfg, "noise", None) is None:
        text = _fields_text(cfg, "config", ("seed", "noise"))
    else:
        text = _fields_text(cfg, "config")
    blob = '{"config":' + text + ',"model_version":' + _encode(model_version) + "}"
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    try:
        object.__setattr__(cfg, _KEY_MEMO, (model_version, key))
    except (AttributeError, TypeError):  # non-dataclass stand-in: skip memo
        pass
    return key


def adopt_key(cfg: "RunConfig", key: str) -> None:
    """Memoize ``key``, derived for an equal config elsewhere, on ``cfg``.

    Memos never travel in pickles, so a scheduler worker receives each
    config bare with its key alongside; adopting the key spares the
    worker rendering the config and its machine again.
    """
    object.__setattr__(cfg, _KEY_MEMO, (MODEL_VERSION, key))


def cacheable(cfg: "RunConfig") -> bool:
    """Whether a config's result is scalar-only (cache-representable)."""
    return not cfg.functional and not cfg.trace


#: Every segment line starts with this, so the key a line was stored
#: under is read from its first bytes without parsing the JSON.
_KEY_HEAD = b'{"key":"'

#: Counters kept per handle (and merged across scheduler workers).
_COUNTERS = ("hits", "misses", "stores", "write_errors")

log = logging.getLogger("repro.cache")


def _entry_line(key: str, fields: dict) -> bytes:
    """One segment line: the key first (readers index by that head), the
    model version, then ``fields``."""
    doc = {"key": key, "model_version": MODEL_VERSION, **fields}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _fields(line: Optional[bytes], summary: bool = False) -> Optional[dict]:
    """A line's result fields when it is a usable current-version entry.

    ``elapsed_s``, ``phases`` and ``comm_stats``, plus ``overlap`` for a
    ``summary`` (an entry without it is unusable); None otherwise.
    """
    if line is None:  # no entry: the common miss, without an exception
        return None
    try:
        doc = json.loads(line)
        if doc["model_version"] != MODEL_VERSION:
            # Defense in depth: the version is part of the key, so this
            # only triggers on a corrupted/forged entry.
            return None
        out = {
            "elapsed_s": float(doc["elapsed_s"]),
            "phases": {k: float(v) for k, v in doc["phases"].items()},
            "comm_stats": {k: int(v) for k, v in doc["comm_stats"].items()},
        }
        if summary:
            from repro.obs.metrics import OverlapMetrics

            out["overlap"] = OverlapMetrics.from_dict(doc["overlap"])
    except (KeyError, TypeError, ValueError, AttributeError):
        # A torn, fused, garbage (bad UTF-8 included) or wrong-shape
        # entry: a plain miss, never a crash.
        return None
    return out


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
        #: complete lines the segment reader could not index (no key
        #: head, or cut before the closing brace)
        self.torn = 0
        os.makedirs(self.directory, exist_ok=True)
        self._index: Dict[str, bytes] = {}
        #: bytes of each segment consumed so far (always a line boundary)
        self._offsets: Dict[str, int] = {}
        #: each segment's size at the last read: a segment only grows, so
        #: an unchanged size means nothing new to index
        self._sizes: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._warned = False

    def serves(self, directory: str) -> bool:
        """Whether this handle's directory is ``directory`` on disk."""
        try:
            return os.path.samefile(self.directory, directory)
        except OSError:
            return False

    def _segment_path(self, prefix: str) -> str:
        return os.path.join(self.directory, f"{prefix}.jsonl")

    def _segment_prefixes(self):
        """Prefixes of the segment files on disk."""
        pattern = os.path.join(self.directory, "?" * SHARD_PREFIX_CHARS + ".jsonl")
        return [os.path.basename(p)[:SHARD_PREFIX_CHARS] for p in glob.glob(pattern)]

    def _read_lines(self, prefix: str, offset: int, index: dict) -> Tuple[int, int]:
        """Index a segment's complete lines from ``offset``.

        Returns the new offset and how many complete lines were unusable.
        A peer's line still being written (no ``\\n`` yet) is left for a
        later read. Later lines win, so a re-stored key supersedes its
        corrupt predecessor.
        """
        try:
            with open(self._segment_path(prefix), "rb") as fh:
                fh.seek(offset)
                tail = fh.read()
        except OSError:
            return offset, 0
        end = tail.rfind(b"\n") + 1
        head = len(_KEY_HEAD)
        torn = 0
        for line in tail[:end].split(b"\n"):
            if line.startswith(_KEY_HEAD) and line.endswith(b"}"):
                key = line[head : line.find(b'"', head)]
                index[key.decode("ascii", "replace")] = line
            elif line:
                torn += 1
        return offset + end, torn

    def _refresh(self, prefix: str) -> None:
        """Catch the index up with a segment's new lines (lock held).

        One ``stat`` decides: a missing segment or one that has not grown
        since the last read is not opened.
        """
        try:
            size = os.stat(self._segment_path(prefix)).st_size
        except OSError:
            return
        if self._sizes.get(prefix) == size:
            return
        self._sizes[prefix] = size
        self._offsets[prefix], torn = self._read_lines(
            prefix, self._offsets.get(prefix, 0), self._index
        )
        self.torn += torn

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

    def replay(self, key: str) -> Optional[Dict[str, Any]]:
        """The result fields stored under ``key``, or None.

        ``elapsed_s``, ``phases`` and ``comm_stats``, as :meth:`get`
        reads them. A hit is counted, a miss is not: the scheduler's
        intake ladder replays through this, and the worker that ends up
        simulating a missed config counts the authoritative miss.
        """
        payload = _fields(self._line(key))
        if payload is not None:
            self.hits += 1
        return payload

    def get(self, cfg: "RunConfig") -> Optional["RunResult"]:
        """Return the cached result for ``cfg``, or ``None`` on a miss."""
        if not cacheable(cfg):
            return None
        return self._lookup(cfg, summary=False)

    def get_summary(self, cfg: "RunConfig") -> Optional["RunResult"]:
        """A traced config's summary entry (scalars plus overlap), or None.

        The result carries ``overlap`` but no ``tracer``: the timeline is
        never stored. An entry without ``overlap`` is a miss.
        """
        if cfg.functional or not cfg.trace:
            return None
        return self._lookup(cfg, summary=True)

    def _lookup(self, cfg: "RunConfig", summary: bool) -> Optional["RunResult"]:
        from repro.core.config import RunResult

        fields = _fields(self._line(config_key(cfg)), summary)
        if fields is None:
            # The run is re-simulated and a fresh line appended.
            self.misses += 1
            return None
        self.hits += 1
        return RunResult(config=cfg, **fields)

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
        return self._store(cfg, result, {})

    def put_summary(self, cfg: "RunConfig", result: "RunResult") -> bool:
        """Store a traced run's summary: :meth:`put`'s line plus ``overlap``.

        The tracer is dropped; False (nothing stored) for an untraced or
        functional config, or a result without overlap metrics.
        """
        if cfg.functional or not cfg.trace or result.overlap is None:
            return False
        return self._store(cfg, result, {"overlap": result.overlap.to_dict()})

    def _store(self, cfg: "RunConfig", result: "RunResult", extra: dict) -> bool:
        key = config_key(cfg)
        line = _entry_line(key, {
            "machine": cfg.machine.name,
            "implementation": cfg.implementation,
            "cores": cfg.cores,
            "elapsed_s": result.elapsed_s,
            "phases": dict(result.phases),
            "comm_stats": dict(result.comm_stats),
            **extra,
        })
        try:
            self._append(key, line)
        except OSError as exc:
            self.write_errors += 1
            if not self._warned:
                self._warned = True
                log.warning("run cache %s: write failed (%s); results are "
                            "not memoized", self.directory, exc)
            return False
        self.stores += 1
        return True

    def _append(self, key: str, line: bytes, lead: bytes = b"") -> None:
        """Append ``lead``, ``line`` and a newline to ``key``'s segment.

        One ``os.write`` to the segment opened with ``O_APPEND``; the line
        is indexed once it landed. Raises ``OSError`` when it did not.
        """
        prefix = key[:SHARD_PREFIX_CHARS]
        data = lead + line + b"\n"
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        fd = os.open(self._segment_path(prefix), flags, 0o666)
        try:
            if os.write(fd, data) < len(data):
                # Terminate the torn line so only this entry is lost,
                # not the next one appended after it.
                os.write(fd, b"\n")
                raise OSError(errno.EIO, f"short write to {prefix}.jsonl")
            # O_APPEND left the offset just past this line.
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        with self._lock:
            self._index[key] = line
            seen = self._offsets.get(prefix, 0)
            if self._sizes.get(prefix, 0) == seen == end - len(data):
                # Nothing was appended between the last read and this line,
                # so a later miss need not read the segment for it.
                self._sizes[prefix] = self._offsets[prefix] = end

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
        with the last line of every key that is a usable entry under the
        current :data:`MODEL_VERSION`; a line a peer appends meanwhile is
        lost (a later miss). Entries of the one-file-per-entry layouts,
        which lookups never read, are deleted.
        """
        removed = 0
        with self._lock:
            self._index.clear()
            self._offsets.clear()
            self._sizes.clear()
            for prefix in self._segment_prefixes():
                lines: Dict[str, bytes] = {}
                self._read_lines(prefix, 0, lines)
                keep = [ln for ln in lines.values() if _fields(ln) is not None]
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

    def merge_stats(self, extra: Dict[str, int]) -> None:
        """Fold another handle's counters into this one's (process pools)."""
        with self._lock:  # several scheduler drain threads may merge at once
            for name in _COUNTERS:
                setattr(self, name, getattr(self, name) + int(extra.get(name, 0)))


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
    if _active is not None:
        _active.merge_stats(extra)


def reset_stats() -> None:
    """Zero the active cache's counters."""
    if _active is not None:
        for name in _COUNTERS:
            setattr(_active, name, 0)
