"""Sweep-scale hot paths: journal commits and warm parent lookups.

Million-config sweeps live or die on two costs (docs/MODEL.md §13): how
often completed results are fsynced on their way to durable journal
storage, and how fast a resumed or deduplicated sweep can re-key and
short-circuit warm configs in the scheduler parent (memoized cache keys
+ journal segment lookups, no worker round-trip). The first is counted,
not timed: a commit of :data:`N_CONFIGS` appended lines makes exactly
one fsync per segment they landed in, and nothing is fsynced before the
commit. The second is gated at :data:`FLOOR_WARM_LOOKUPS_PER_S`.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cache import SHARD_PREFIX_CHARS, config_key
from repro.core.config import RunConfig
from repro.machines import get_machine
from repro.sched import Scheduler, ShardedJournal

#: Warm cached lookups/s through the scheduler parent path, best of 3.
FLOOR_WARM_LOOKUPS_PER_S = 20_000

#: Distinct configs mapped warm, and lines appended before one commit.
N_CONFIGS = 4096


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


def test_bench_journal_commit_fsyncs(configs, tmp_path, monkeypatch):
    """One fsync per dirty segment per commit, none while appending."""
    _, keys, payloads = configs
    synced = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(real(fd)))
    journal = ShardedJournal(str(tmp_path / "journal"))
    t0 = time.perf_counter()
    for key, payload in zip(keys, payloads):
        journal.record(key, payload)
    appended = len(synced)
    journal.flush()
    elapsed = time.perf_counter() - t0
    segments = {key[:SHARD_PREFIX_CHARS] for key in keys}
    print(f"\n{len(keys)} lines appended and committed in {elapsed:.3f}s "
          f"({len(keys) / elapsed:,.0f}/s), {len(synced)} fsyncs")
    assert appended == 0
    assert len(synced) == len(segments)
    journal.flush()  # nothing appended since the last commit
    assert len(synced) == len(segments)
    journal.close()


def test_bench_warm_parent_lookups(configs, tmp_path):
    """Warm map() throughput: memoized keys + journal hits, no workers."""
    cfgs, keys, payloads = configs
    jroot = str(tmp_path / "journal")
    journal = ShardedJournal(jroot)
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
