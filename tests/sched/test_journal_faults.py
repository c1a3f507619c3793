"""A failed journal commit must not strand scheduler records.

``_finish_success`` journals each result under the scheduler lock, and
``collect`` commits the journal before it returns.  A commit that raises
(``ENOSPC``) must leave the lines pending and the records settled: the
error surfaces from ``map``, nothing is stranded in flight, and the next
``map`` on a healthy disk commits every pending line.
"""

import errno
import os
import threading

import pytest

from repro.cache import config_key, configure as cache_configure
from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import LENS
from repro.sched import Scheduler, ShardedJournal, configure


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
    journal = ShardedJournal(path)
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
    with ShardedJournal(path) as reopened:
        assert all(reopened.has_key(config_key(c)) for c in cfgs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_append_settles_records_and_resurfaces(
    tmp_path, monkeypatch, jobs
):
    """A journal append that fails keeps its line pending; ``collect``'s
    commit rewrites it, and raises while the disk is still full."""
    path = str(tmp_path / "j.jsonl")
    cfgs = _cfgs()
    disk_full = threading.Event()
    disk_full.set()
    journal_fds = set()
    real_open, real_write = os.open, os.write

    def tracking_open(target, *args, **kwargs):
        fd = real_open(target, *args, **kwargs)
        if str(target).startswith(path):
            journal_fds.add(fd)
        else:
            journal_fds.discard(fd)
        return fd

    def write(fd, data):
        if disk_full.is_set() and fd in journal_fds:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data)

    monkeypatch.setattr(os, "open", tracking_open)
    monkeypatch.setattr(os, "write", write)
    with Scheduler(jobs=jobs, journal=path) as sched:
        outcome, exc = _map_in_thread(sched, cfgs)
        assert outcome == "raised" and isinstance(exc, OSError)
        assert exc.errno == errno.ENOSPC
        assert sched.snapshot()["inflight"] == 0
        assert sched.journal.counts()["pending"] == len(cfgs)

        disk_full.clear()
        outcome, results = _map_in_thread(sched, cfgs)
        assert outcome == "ok"
        assert sched.journal.counts()["pending"] == 0
    for got, want in zip(results, [run(c) for c in cfgs]):
        assert got.elapsed_s == want.elapsed_s
    with ShardedJournal(path) as reopened:
        assert all(reopened.has_key(config_key(c)) for c in cfgs)
