"""Sweep-fabric hot paths: group-commit appends and warm parent lookups.

Million-config sweeps live or die on two rates (docs/MODEL.md §13): how
fast completed results reach durable journal storage (group commit — one
``write+flush+fsync`` per batch instead of per line) and how fast a
resumed or deduplicated sweep can re-key and short-circuit warm configs
in the scheduler parent (memoized cache keys + sharded journal lookups,
no worker round-trip). Both are gated here: warm lookups at
:data:`FLOOR_WARM_LOOKUPS_PER_S`, group-commit appends at
:data:`FLOOR_GROUP_COMMIT_SPEEDUP` times the one-fsync-per-line baseline.
"""

from __future__ import annotations

import time

import pytest

from repro.cache import config_key
from repro.core.config import RunConfig
from repro.machines import get_machine
from repro.sched import Scheduler, ShardedJournal
from repro.sched.journal import Journal

#: Warm cached lookups/s through the scheduler parent path, best of 3.
FLOOR_WARM_LOOKUPS_PER_S = 20_000

#: Group-commit appends/s over one-fsync-per-line appends/s.
FLOOR_GROUP_COMMIT_SPEEDUP = 10.0

#: Distinct configs mapped warm, and records appended with group commit.
N_CONFIGS = 4096

#: Records appended with one fsync each (bounded so slow disks stay quick).
N_PER_LINE = 256


@pytest.fixture(scope="module")
def configs():
    machine = get_machine("yona")
    cfgs = [
        RunConfig(machine=machine, implementation="nonblocking", cores=12,
                  threads_per_task=1, steps=s + 1)
        for s in range(N_CONFIGS)
    ]
    keys = [config_key(c) for c in cfgs]  # memoizes every key
    payloads = [
        {"elapsed_s": 0.001 * (i + 1), "phases": {"compute": 0.001 * (i + 1)},
         "comm_stats": {"messages": i}}
        for i in range(N_CONFIGS)
    ]
    return cfgs, keys, payloads


def _append_rate(path, flush_max, keys, payloads):
    journal = Journal(str(path), flush_max_records=flush_max,
                      flush_interval=3600.0)
    t0 = time.perf_counter()
    for key, payload in zip(keys, payloads):
        journal.record(key, payload)
    journal.close()  # the final flush belongs in the measurement
    return len(keys) / (time.perf_counter() - t0)


def test_bench_journal_group_commit(configs, tmp_path):
    """Group-commit appends vs the one-fsync-per-line baseline."""
    _, keys, payloads = configs
    baseline = _append_rate(tmp_path / "per-line.jsonl", 1,
                            keys[:N_PER_LINE], payloads[:N_PER_LINE])
    grouped = _append_rate(tmp_path / "grouped.jsonl", 256, keys, payloads)
    speedup = grouped / baseline
    assert speedup >= FLOOR_GROUP_COMMIT_SPEEDUP, (
        f"group commit {grouped:,.0f}/s is {speedup:.1f}x per-line fsync "
        f"{baseline:,.0f}/s < {FLOOR_GROUP_COMMIT_SPEEDUP:.0f}x floor"
    )


def test_bench_warm_parent_lookups(configs, tmp_path):
    """Warm map() throughput: memoized keys + journal hits, no workers."""
    cfgs, keys, payloads = configs
    jroot = str(tmp_path / "journal")
    journal = ShardedJournal(jroot, flush_max_records=1024)
    for key, payload in zip(keys, payloads):
        journal.record(key, payload)
    journal.close()

    lookups = 0.0
    for _ in range(3):  # best-of: fresh scheduler, warm journal
        with Scheduler(jobs=1, journal=ShardedJournal(jroot)) as sched:
            t0 = time.perf_counter()
            out = sched.map(cfgs)
            elapsed = time.perf_counter() - t0
            assert sched.stats()["journal_hits"] == N_CONFIGS
        assert all(
            r.elapsed_s == p["elapsed_s"] for r, p in zip(out, payloads)
        ), "journal replay not bit-identical"
        lookups = max(lookups, N_CONFIGS / elapsed)
    assert lookups >= FLOOR_WARM_LOOKUPS_PER_S, (
        f"{lookups:,.0f} warm lookups/s < {FLOOR_WARM_LOOKUPS_PER_S:,} floor"
    )
