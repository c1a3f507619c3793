"""Completion hooks and the single-lock summary snapshot.

The serve daemon bridges scheduler completions onto an event loop, so
the hook contract is load-bearing: hooks fire exactly once per record
going terminal, OUTSIDE the scheduler lock (a hook may call back into
``stats()``/``snapshot()`` from any thread without deadlocking), and
``snapshot()`` is one consistent single-mutex read — ``/metrics`` can
never observe ``coalesced > submitted``-style torn counters.
"""

import threading

import pytest

from repro.cache import configure as cache_configure
from repro.core.config import RunConfig
from repro.machines import LENS
from repro.sched import Scheduler, configure


@pytest.fixture(autouse=True)
def _no_ambient_state():
    cache_configure(None)
    configure(None)
    yield
    cache_configure(None)
    configure(None)


def _cfgs(n=4, start=0):
    return [
        RunConfig(machine=LENS, implementation="nonblocking",
                  cores=2 ** (i % 5), steps=2 + (start + i) // 5,
                  domain=(24, 24, 24))
        for i in range(start, start + n)
    ]


class TestCompletionHooks:
    def test_hook_fires_once_per_terminal_record(self, tmp_path):
        seen = []
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            sched.add_completion_hook(lambda rec: seen.append(rec.key))
            cfgs = _cfgs(3)
            sched.map(cfgs + cfgs)  # in-batch duplicates coalesce
            assert sorted(seen) == sorted(set(seen))
            assert len(seen) == 3
            sched.map(cfgs)  # memoized batch: no record goes terminal
            assert len(seen) == 3

    def test_hook_fires_for_warm_short_circuits(self, tmp_path):
        """Cache and journal hits are terminal records too — the serve
        layer streams their progress like any simulated task."""
        cfgs = _cfgs(3)
        with Scheduler(jobs=1, cache_dir=str(tmp_path / "c")) as sched:
            sched.map(cfgs)
        seen = []
        with Scheduler(jobs=1, cache_dir=str(tmp_path / "c")) as sched:
            sched.add_completion_hook(lambda rec: seen.append(rec.state.value))
            sched.map(cfgs)
        assert len(seen) == 3
        assert set(seen) == {"cached"}

    def test_remove_hook(self, tmp_path):
        seen = []
        with Scheduler(jobs=1, cache_dir=str(tmp_path / "c")) as sched:
            hook = sched.add_completion_hook(lambda rec: seen.append(rec.key))
            sched.map(_cfgs(2))
            sched.remove_completion_hook(hook)
            sched.map(_cfgs(2, start=10))
        assert len(seen) == 2

    def test_hook_exception_does_not_break_the_batch(self, tmp_path):
        ok = []
        with Scheduler(jobs=1, cache_dir=str(tmp_path / "c")) as sched:
            def bomb(rec):
                raise RuntimeError("hook bug")

            sched.add_completion_hook(bomb)
            sched.add_completion_hook(lambda rec: ok.append(rec.key))
            results = sched.map(_cfgs(2))
        assert len(results) == 2
        assert len(ok) == 2, "the second hook was starved by the first"

    def test_hook_may_reenter_scheduler_from_worker_threads(self, tmp_path):
        """The deadlock regression: hooks fire on pool done-callback
        threads during ``map()`` assembly; a hook that calls back into
        the locked API (``stats``/``snapshot``) must not deadlock or
        drop notifications."""
        seen = []
        lock = threading.Lock()

        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            def reentrant(rec):
                snap = sched.snapshot()  # takes the scheduler mutex
                with lock:
                    seen.append((rec.key, snap["counters"]["submitted"]))

            sched.add_completion_hook(reentrant)

            batches = [_cfgs(6, start=6 * i) for i in range(4)]
            errs = []

            def mapper(batch):
                try:
                    sched.map(batch)
                except BaseException as exc:  # pragma: no cover
                    errs.append(exc)

            threads = [
                threading.Thread(target=mapper, args=(b,)) for b in batches
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            hung = [t for t in threads if t.is_alive()]
            assert not hung, "map() deadlocked with a reentrant hook"
            assert not errs

            distinct = {  # the union of all batches, deduplicated
                (c.implementation, c.cores, c.steps)
                for b in batches for c in b
            }
            keys = [k for k, _ in seen]
            assert len(keys) == len(set(keys)), "a record fired twice"
            assert len(keys) == len(distinct), (
                "dropped notifications from non-main threads"
            )


class TestSnapshotConsistency:
    def test_snapshot_shape(self, tmp_path):
        with Scheduler(jobs=1, cache_dir=str(tmp_path / "c"),
                       journal=str(tmp_path / "j.jsonl")) as sched:
            sched.map(_cfgs(3))
            snap = sched.snapshot()
        assert snap["jobs"] == 1
        assert snap["inflight"] == 0
        assert snap["memoized"] == 3
        assert snap["counters"]["submitted"] == 3
        assert snap["journal"] is not None
        assert snap["wall"]["count"] == 3
        assert snap["wall"]["total_s"] >= snap["wall"]["max_s"] >= 0.0

    def test_no_torn_reads_under_concurrent_maps(self, tmp_path):
        """Hammer snapshot() while 4 threads map overlapping batches and
        a fifth probes them: every snapshot must satisfy the
        cross-counter invariants that a torn (two-acquire) read could
        violate."""
        stop = threading.Event()
        violations = []

        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            def hammer():
                while not stop.is_set():
                    s = sched.snapshot()
                    c = s["counters"]
                    submitted = c["submitted"]
                    terminal = (
                        c["simulated"] + c["cache_hits"]
                        + c["journal_hits"] + c["coalesced"]
                        + c["failed"] + c["poisoned"] + c["inline"]
                    )
                    if c["coalesced"] > submitted:
                        violations.append(("coalesced>submitted", dict(c)))
                    if terminal > submitted:
                        violations.append(("terminal>submitted", dict(c)))
                    if s["memoized"] > submitted:
                        violations.append(("memoized>submitted", dict(c)))
                    if s["wall"]["count"] > submitted:
                        violations.append(("wall>submitted", dict(c)))

            batches = [_cfgs(8, start=4 * i) for i in range(4)]

            def prober():
                while not stop.is_set():
                    for cfg in batches[-1]:
                        sched.probe(cfg)

            hammers = [threading.Thread(target=hammer) for _ in range(2)]
            hammers.append(threading.Thread(target=prober))
            for h in hammers:
                h.start()
            mappers = [
                threading.Thread(target=sched.map, args=(b,))
                for b in batches
            ]
            for m in mappers:
                m.start()
            for m in mappers:
                m.join(timeout=120)
            stop.set()
            for h in hammers:
                h.join(timeout=30)
            assert not violations, violations[:5]

    def test_summary_built_from_one_snapshot(self, tmp_path):
        """summary() renders from a single snapshot() acquire — spot
        check that its numbers agree with a quiesced snapshot."""
        with Scheduler(jobs=1, cache_dir=str(tmp_path / "c")) as sched:
            sched.map(_cfgs(4) * 2)
            snap = sched.snapshot()
            text = sched.summary()
        assert f"submitted={snap['counters']['submitted']}" in text
        assert f"coalesced={snap['counters']['coalesced']}" in text
