"""Functional runs on concurrent OS threads, each with its own scratch arena.

Every rank and device side of a functional run leases the separable
sweeps' scratch from the calling thread's default arena
(:func:`repro.stencil.arena.default_arena`). The scheduler runs functional
configs inline in the calling thread, and the serve daemon calls it from a
thread pool, so two runs may sweep at once. Each must lease from its own
thread's arena and reproduce the serial fields byte for byte.
"""

import sys
import threading

import pytest

from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import LENS
from repro.sched.scheduler import Scheduler
from repro.stencil.arena import ScratchArena, default_arena

#: how often each thread runs its configs; the runs interleave on the GIL
REPEATS = 3
#: seconds a thread may take before the test calls it hung
JOIN_TIMEOUT = 300


def _configs():
    return [
        RunConfig(machine=LENS, implementation=impl, cores=32,
                  threads_per_task=4, steps=3, domain=(24, 24, 24),
                  box_thickness=2, functional=True, network="full")
        for impl in ("nonblocking", "hybrid_overlap")
    ]


@pytest.fixture(scope="module")
def serial():
    return {cfg.implementation: run(cfg).global_field.tobytes()
            for cfg in _configs()}


def _run_threads(work):
    """Run ``work(cfgs)`` on two threads at once, the second with the
    configs reversed so the threads sweep different block extents; returns
    per thread the ``(implementation, field bytes)`` pairs and the thread's
    default arena."""
    barrier = threading.Barrier(2)
    out = [None, None]
    errors = []

    def body(slot, cfgs):
        try:
            barrier.wait()
            fields = []
            for _ in range(REPEATS):
                for cfg, result in zip(cfgs, work(cfgs)):
                    fields.append((cfg.implementation,
                                   result.global_field.tobytes()))
            out[slot] = (fields, default_arena())
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)
            barrier.abort()

    cfgs = _configs()
    threads = [threading.Thread(target=body, args=(0, cfgs)),
               threading.Thread(target=body, args=(1, cfgs[::-1]))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, mid-sweep included
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return out


def _check(out, serial):
    arenas = [arena for _, arena in out]
    for fields, arena in out:
        assert len(fields) == REPEATS * len(serial)
        for impl, field in fields:
            assert field == serial[impl], impl
        # The thread's sweeps leased from its own arena.
        assert isinstance(arena, ScratchArena) and arena.misses > 0
    assert arenas[0] is not arenas[1]
    assert default_arena() not in arenas


def test_runner_threads_match_serial_runs(serial):
    _check(_run_threads(lambda cfgs: [run(cfg) for cfg in cfgs]), serial)


def test_scheduler_collect_threads_match_serial_runs(serial, tmp_path):
    with Scheduler(jobs=1, cache_dir=str(tmp_path / "cache")) as sched:
        out = _run_threads(lambda cfgs: sched.collect(sched.submit(cfgs)))
        assert sched.stats()["inline"] == 2 * REPEATS * len(serial)
    _check(out, serial)


def test_threads_get_distinct_default_arenas():
    seen = []
    t = threading.Thread(target=lambda: seen.append(
        (default_arena(), default_arena())))
    t.start()
    t.join(JOIN_TIMEOUT)
    assert not t.is_alive()
    (first, again), = seen
    assert first is again
    assert first is not default_arena()
    assert default_arena() is default_arena()
