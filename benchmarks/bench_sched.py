"""Regeneration through the run cache and the run scheduler.

``experiment all --fast`` four times in one process: serially on an
empty run cache (cold), serially again on the same cache (warm), then
cold and warm through ``JOBS`` scheduler worker processes on a second
empty cache. The warm pass must cut at least :data:`FLOOR_WARM_CUT` off
the cold one, the scheduled passes must clear the floors below, and
every pass must reproduce the serial cold rows and series exactly.

Run from the repository root::

    python -m pytest benchmarks/bench_sched.py -q --benchmark-disable
"""

from __future__ import annotations

import os
import time

import pytest

from repro import cache as run_cache
from repro.experiments import EXPERIMENTS, run_experiments

#: Warm serial regeneration must be at least this much faster than cold.
FLOOR_WARM_CUT = 0.40

#: Worker processes of the scheduled passes.
JOBS = 4

#: Scheduled cold speedup over serial cold where ``JOBS`` cores are free.
FLOOR_SCHED_COLD_SPEEDUP = 2.0

#: Scheduled warm may take at most FACTOR x serial warm + SLACK seconds.
CEIL_SCHED_WARM_FACTOR = 1.25
CEIL_SCHED_WARM_SLACK_S = 0.30


def usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sched_cold_floor(jobs: int) -> float:
    """Speedup floor for the cold scheduled pass on this machine.

    :data:`FLOOR_SCHED_COLD_SPEEDUP` holds where the pool can really run
    ``jobs`` simulations at once; with fewer usable cores the floor
    drops by 0.5x per missing core, bottoming out at 0.5x. On one core
    the workers time-share with the parent, so the floor only bounds
    the context-switch and IPC tax.
    """
    return max(0.5, 0.5 * min(jobs, usable_cores()))


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """``(mode, phase) -> (seconds, results)`` for the four passes."""
    ids = sorted(EXPERIMENTS)
    out = {}
    for mode, jobs in (("serial", 1), ("scheduled", JOBS)):
        run_cache.configure(str(tmp_path_factory.mktemp(mode)))
        try:
            for phase in ("cold", "warm"):
                t0 = time.perf_counter()
                results = run_experiments(ids, fast=True, jobs=jobs)
                out[mode, phase] = (time.perf_counter() - t0, results)
        finally:
            run_cache.configure(None)
    return out


def test_warm_regeneration_cut(passes):
    cold_s, _ = passes["serial", "cold"]
    warm_s, _ = passes["serial", "warm"]
    cut = 1.0 - warm_s / cold_s
    assert cut >= FLOOR_WARM_CUT, (
        f"warm {warm_s:.2f} s cuts {100 * cut:.0f}% off cold {cold_s:.2f} s "
        f"< {100 * FLOOR_WARM_CUT:.0f}%"
    )


def test_scheduled_cold_speedup(passes):
    speedup = passes["serial", "cold"][0] / passes["scheduled", "cold"][0]
    floor = sched_cold_floor(JOBS)
    assert speedup >= floor, (
        f"scheduled cold regeneration {speedup:.2f}x serial < {floor:.2f}x "
        f"floor ({usable_cores()} usable cores)"
    )


def test_scheduled_warm_no_slower(passes):
    serial_s, _ = passes["serial", "warm"]
    sched_s, _ = passes["scheduled", "warm"]
    ceiling = serial_s * CEIL_SCHED_WARM_FACTOR + CEIL_SCHED_WARM_SLACK_S
    assert sched_s <= ceiling, (
        f"scheduled warm regeneration {sched_s:.2f} s > {ceiling:.2f} s "
        f"(serial warm {serial_s:.2f} s)"
    )


@pytest.mark.parametrize("mode,phase", [
    ("serial", "warm"), ("scheduled", "cold"), ("scheduled", "warm"),
])
def test_identical_to_serial_cold(passes, mode, phase):
    _, want = passes["serial", "cold"]
    _, got = passes[mode, phase]
    assert [(r.rows, r.series) for r in got] == [
        (r.rows, r.series) for r in want
    ]
