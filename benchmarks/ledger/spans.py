"""Spans recorded from outside the program, around its public entry points.

:func:`install` replaces each entry point the ledger measures with a thin
wrapper that records one span per call: name, start, end, the span that
was open on the same thread when it started (its parent), and an optional
note about the result.  Nothing inside ``src/`` changes; module-level
functions are rebound in every already-imported ``repro`` module that
holds them, and modules imported later pick up the wrapper from its home
module.  Spans stay in memory and are written out once, as JSON, by
:meth:`SpanRecorder.dump`.

Scheduler workers are forked from a traced process, so they inherit the
wrappers.  The first span a worker records resets the inherited log and
arranges for the worker to dump its own spans when it exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: One span: (name, pid, tid, start_ns, end_ns, id, parent_id, note).
NAME, PID, TID, START, END, SID, PARENT, NOTE = range(8)

#: Modules holding the wrapped entry points.  A pass imports them during
#: set-up whether traced or not, so both kinds of pass pay the same imports.
TARGET_MODULES = (
    "repro.cache", "repro.core.runner", "repro.des", "repro.experiments.common",
    "repro.sched", "repro.sched.journal", "repro.workloads",
)


class SpanRecorder:
    """In-memory span log of one process (and, after fork, of each worker)."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.enabled = False
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> list:
        if os.getpid() != self._pid:
            self._adopt_fork()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_fork(self) -> None:
        # A forked worker holds a copy of the parent's log and open stack.
        from multiprocessing import util

        self._pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        # Multiprocessing workers run registered finalizers on exit (they
        # leave through os._exit, which skips atexit).
        util.Finalize(None, self.dump, exitpriority=100)

    def wrap(self, name, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``name`` may be a function of the args."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            out = None
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                rec.spans.append((
                    name(*args, **kwargs) if callable(name) else name,
                    rec._pid, threading.get_ident(), t0, t1, sid, parent,
                    note(out) if note is not None else None,
                ))

        return wrapper

    def dump(self) -> None:
        """Write this process's spans to ``<dump_dir>/spans-<pid>.json``."""
        path = os.path.join(self.dump_dir, f"spans-{self._pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _rebind(orig: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's binding of ``orig`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def install(rec: SpanRecorder) -> None:
    """Wrap the measured entry points (spans record while ``rec.enabled``)."""
    import repro.cache as cache
    import repro.core.runner as runner
    import repro.experiments.common as experiments
    from repro.des import Environment
    from repro.sched import Scheduler
    from repro.sched.journal import ShardedJournal
    from repro.workloads import WORKLOADS

    for orig, name in (
        (experiments.run_experiments, "experiments.run_experiments"),
        (experiments.run_experiment,
         lambda exp_id, *a, **k: f"experiments.{exp_id}"),
        (runner.run, "runner.run"),
        (cache.config_key, "cache.config_key"),
    ):
        _rebind(orig, rec.wrap(name, orig))

    def method(cls, attr, name, note=None):
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), note))

    method(Environment, "run", "des.run")
    method(cache.RunCache, "get", "cache.get", note=lambda out: out is not None)
    method(cache.RunCache, "put", "cache.put")
    method(Scheduler, "map", "sched.map")
    method(ShardedJournal, "record", "journal.record")
    method(ShardedJournal, "flush", "journal.flush")
    for wl in WORKLOADS.values():
        for attr in ("decompose", "make_data", "mirror_profile", "validate",
                     "finalize_functional"):
            method(type(wl), attr, f"workloads.{wl.key}.{attr}")


def load(dump_dir: str) -> List[tuple]:
    """Every span dumped into ``dump_dir`` (all processes)."""
    spans: List[tuple] = []
    for name in sorted(os.listdir(dump_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(dump_dir, name), encoding="utf-8") as fh:
                spans.extend(tuple(s) for s in json.load(fh))
    return spans


class SpanTable:
    """Per-name call counts, inclusive and self times over a span list.

    A span's self time is its duration minus the durations of its child
    spans.  Children run on the parent's thread inside its interval, one
    after another, so self time is never negative.
    """

    def __init__(self, spans: Iterable[tuple]):
        self.spans = list(spans)
        child_ns: Dict[tuple, int] = defaultdict(int)
        for s in self.spans:
            child_ns[(s[PID], s[PARENT])] += s[END] - s[START]
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            dur = s[END] - s[START]
            self.calls[s[NAME]] += 1
            self.total_ns[s[NAME]] += dur
            self.self_ns[s[NAME]] += dur - child_ns.get((s[PID], s[SID]), 0)

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def matching(self, suffix: str) -> List[str]:
        return [n for n in self.calls if n.endswith(suffix)]

    def parents_of(self, child_name: str) -> set:
        """(pid, id) of every span with a direct child named ``child_name``."""
        return {(s[PID], s[PARENT]) for s in self.spans if s[NAME] == child_name}

    def covered_ns(self, t0_ns: int, t1_ns: int) -> int:
        """Time within ``[t0, t1]`` covered by the union of top-level spans."""
        spans = sorted(
            (max(s[START], t0_ns), min(s[END], t1_ns))
            for s in self.spans if s[PARENT] == 0
        )
        covered, reach = 0, t0_ns
        for lo, hi in spans:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered


def chrome_trace(spans: Iterable[tuple], path: str, meta: dict) -> None:
    """Write spans as a Chrome-trace (``chrome://tracing``/Perfetto) file."""
    events = [
        {
            "name": s[NAME], "ph": "X", "pid": s[PID], "tid": s[TID],
            "ts": s[START] / 1e3, "dur": (s[END] - s[START]) / 1e3,
            "args": {"id": s[SID], "parent": s[PARENT], "note": s[NOTE]},
        }
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "otherData": meta}, fh)
