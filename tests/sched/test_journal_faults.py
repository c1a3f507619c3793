"""A failed journal group commit must not strand scheduler records.

``_finish_success`` journals each result under the scheduler lock, and a
record may trigger a group commit (``flush_max_records=1`` makes every
one do so).  A commit that raises (``ENOSPC``) must leave the line
pending and the record settled: the error surfaces from the flush
``map`` runs before returning, nothing is stranded in flight, and the
next ``map`` on a healthy disk commits every pending line.
"""

import errno
import os
import threading

import pytest

from repro.cache import config_key, configure as cache_configure
from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import LENS
from repro.sched import Journal, Scheduler, configure


@pytest.fixture(autouse=True)
def _no_ambient_state():
    cache_configure(None)
    configure(None)
    yield
    cache_configure(None)
    configure(None)


def _cfgs(n=3):
    return [
        RunConfig(machine=LENS, implementation="nonblocking", cores=2**i,
                  steps=2, domain=(24, 24, 24))
        for i in range(n)
    ]


def _map_in_thread(sched, cfgs, timeout=60):
    """``sched.map`` on a thread: ``("ok", results)`` or ``("raised", exc)``.

    A stranded record would block ``map`` forever; the join timeout
    turns that hang into a test failure.
    """
    out = []

    def target():
        try:
            out.append(("ok", sched.map(cfgs)))
        except BaseException as exc:
            out.append(("raised", exc))

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "map() hung on a stranded record"
    return out[0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_commit_settles_records_and_resurfaces(
    tmp_path, monkeypatch, jobs
):
    path = str(tmp_path / "j.jsonl")
    cfgs = _cfgs()
    disk_full = threading.Event()
    disk_full.set()
    real_fsync = os.fsync

    def fsync(fd):
        if disk_full.is_set():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    journal = Journal(path, flush_max_records=1)
    with Scheduler(jobs=jobs, journal=journal) as sched:
        outcome, exc = _map_in_thread(sched, cfgs)
        assert outcome == "raised" and isinstance(exc, OSError)
        assert exc.errno == errno.ENOSPC
        assert sched.snapshot()["inflight"] == 0

        disk_full.clear()
        outcome, results = _map_in_thread(sched, cfgs)
        assert outcome == "ok"
    for got, want in zip(results, [run(c) for c in cfgs]):
        assert got.elapsed_s == want.elapsed_s
        assert got.phases == want.phases
        assert got.comm_stats == want.comm_stats
    with Journal(path) as reopened:
        assert all(config_key(c) in reopened for c in cfgs)
