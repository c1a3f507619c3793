"""Tests for the shared task scheduler: dedup, coalescing, identity."""

import threading

import pytest

from repro.cache import RunCache, config_key, configure as cache_configure
from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import JAGUARPF, LENS, YONA
from repro.sched import (
    Scheduler,
    SchedulerError,
    active_scheduler,
    configure,
    scheduled,
)


@pytest.fixture(autouse=True)
def _no_ambient_state():
    """Each test starts without a process-wide cache or scheduler."""
    cache_configure(None)
    configure(None)
    yield
    cache_configure(None)
    configure(None)


def _cfgs(n=4, machine=LENS, impl="nonblocking"):
    return [
        RunConfig(machine=machine, implementation=impl, cores=2**i, steps=2,
                  domain=(24, 24, 24))
        for i in range(n)
    ]


class TestDedup:
    def test_identical_configs_simulated_once(self, tmp_path):
        cfg = _cfgs(1)[0]
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            results = sched.map([cfg] * 5)
            assert len(results) == 5
            s = sched.stats()
            assert s["submitted"] == 5
            assert s["simulated"] == 1
            assert s["coalesced"] == 4
            assert len({r.elapsed_s for r in results}) == 1

    def test_dedup_across_batches(self, tmp_path):
        cfgs = _cfgs(3)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            a = sched.map(cfgs)
            b = sched.map(cfgs)
            s = sched.stats()
            assert s["simulated"] == 3  # second batch fully memoized
            assert s["coalesced"] == 3
            assert [r.elapsed_s for r in a] == [r.elapsed_s for r in b]

    def test_threads_coalesce_on_one_simulation(self, tmp_path):
        """N concurrent requesters -> one simulation per distinct config."""
        cfgs = _cfgs(4)
        outs = {}
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            def worker(tid):
                outs[tid] = sched.map(cfgs)

            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sched.stats()["simulated"] == len(cfgs)
        base = [r.elapsed_s for r in outs[0]]
        for tid in range(1, 4):
            assert [r.elapsed_s for r in outs[tid]] == base

    def test_jobs_one_is_inline_with_dedup(self):
        cfg = _cfgs(1)[0]
        with Scheduler(jobs=1) as sched:
            results = sched.map([cfg, cfg])
            s = sched.stats()
            assert s["simulated"] == 1 and s["coalesced"] == 1
            assert results[0].elapsed_s == results[1].elapsed_s


class TestCacheShortCircuit:
    def test_warm_entries_skip_the_pool(self, tmp_path):
        cache_dir = str(tmp_path / "c")
        cfgs = _cfgs(3)
        cache = cache_configure(cache_dir)
        for cfg in cfgs:
            cache.put(cfg, run(cfg))
        with Scheduler(jobs=2, cache_dir=cache_dir) as sched:
            results = sched.map(cfgs)
            s = sched.stats()
            assert s["cache_hits"] == 3
            assert s["simulated"] == 0
        serial = [run(c) for c in cfgs]
        for a, b in zip(results, serial):
            assert a.elapsed_s == b.elapsed_s

    def test_cold_misses_counted_once(self, tmp_path):
        """The parent probe must not double-charge worker misses."""
        cache_dir = str(tmp_path / "c")
        cache = cache_configure(cache_dir)
        cfgs = _cfgs(3)
        with Scheduler(jobs=2, cache_dir=cache_dir) as sched:
            sched.map(cfgs)
        assert cache.misses == 3
        assert cache.stores == 3


class TestBitIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_scheduled_equals_serial(self, tmp_path, jobs):
        cfgs = _cfgs(4, machine=JAGUARPF, impl="bulk")
        serial = [run(c) for c in cfgs]
        with Scheduler(jobs=jobs, cache_dir=str(tmp_path / f"c{jobs}")) as sched:
            scheduled_results = sched.map(cfgs)
        for a, b in zip(scheduled_results, serial):
            assert a.elapsed_s == b.elapsed_s
            assert a.phases == b.phases
            assert a.comm_stats == b.comm_stats

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_seeded_noise_is_deterministic(self, tmp_path, jobs):
        cfgs = [
            RunConfig(machine=YONA, implementation="hybrid_overlap", cores=12,
                      threads_per_task=12, box_thickness=2, seed=s)
            for s in (11, 12, 13)
        ]
        serial = [run(c) for c in cfgs]
        with Scheduler(jobs=jobs, cache_dir=str(tmp_path / f"c{jobs}")) as sched:
            out = sched.map(cfgs)
        for a, b in zip(out, serial):
            assert a.elapsed_s == b.elapsed_s
            assert a.phases == b.phases

    def test_journal_replay_is_bit_identical(self, tmp_path):
        cfgs = _cfgs(3)
        jp = str(tmp_path / "j.jsonl")
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c"),
                       journal=jp) as sched:
            first = sched.map(cfgs)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c2"),
                       journal=jp) as sched:
            second = sched.map(cfgs)
            assert sched.stats()["journal_hits"] == 3
            assert sched.stats()["simulated"] == 0
        for a, b in zip(first, second):
            assert a.elapsed_s == b.elapsed_s
            assert a.phases == b.phases
            assert a.comm_stats == b.comm_stats


class TestInlineRuns:
    def test_functional_runs_inline(self, tmp_path):
        """Non-cacheable configs never travel through the pool."""
        cfg = RunConfig(machine=LENS, implementation="nonblocking", cores=2,
                        steps=2, domain=(16, 16, 16), network="full",
                        functional=True)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            [result] = sched.map([cfg])
            s = sched.stats()
            assert s["inline"] == 1 and s["simulated"] == 0
        assert result.global_field is not None

    def test_traced_runs_inline_and_keep_tracer(self, tmp_path):
        cfg = RunConfig(machine=YONA, implementation="hybrid_overlap",
                        cores=12, threads_per_task=12, box_thickness=2,
                        trace=True)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            [result] = sched.map([cfg])
            assert sched.stats()["inline"] == 1
        assert result.tracer is not None


class TestErrors:
    def test_simulator_errors_propagate(self, tmp_path):
        good = _cfgs(1)[0]
        # An infeasible config (thickness too thick) raises in the worker.
        infeasible = RunConfig(machine=YONA, implementation="hybrid_overlap",
                               cores=192, threads_per_task=2,
                               box_thickness=200)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            with pytest.raises(ValueError):
                sched.map([good, infeasible])
            out = sched.map([good, infeasible], return_exceptions=True)
            assert isinstance(out[1], ValueError)
            assert out[0].elapsed_s > 0
            assert sched.stats()["failed"] == 1  # memoized, not re-failed

    def test_closed_scheduler_rejects_work(self):
        sched = Scheduler(jobs=1)
        sched.close()
        with pytest.raises(SchedulerError):
            sched.map(_cfgs(1))


class TestModuleState:
    def test_configure_and_active(self):
        assert active_scheduler() is None
        sched = configure(1)
        assert active_scheduler() is sched
        configure(None)
        assert active_scheduler() is None

    def test_scheduled_restores_previous(self):
        outer = configure(1)
        with scheduled(2) as inner:
            assert active_scheduler() is inner
        assert active_scheduler() is outer

    def test_telemetry_names_complete(self):
        from repro.sched.scheduler import COUNTER_NAMES

        with Scheduler(jobs=1) as sched:
            s = sched.stats()
            assert set(s) == set(COUNTER_NAMES)
            line = sched.summary()
            for name in COUNTER_NAMES:
                assert f"{name.replace('_', '-')}=" in line


class TestKeying:
    def test_task_key_is_the_cache_key(self, tmp_path):
        """Dedup and cache short-circuit address the same content hash."""
        cfg = _cfgs(1)[0]
        cache_dir = str(tmp_path / "c")
        with Scheduler(jobs=1, cache_dir=cache_dir) as sched:
            sched.map([cfg])
        cache = RunCache(cache_dir)
        assert cache.get(cfg) is not None
        assert cache.has_key(config_key(cfg))


class TestCacheWriteFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cache_still_reports_success(self, tmp_path, monkeypatch,
                                                 jobs):
        """A disk-full run cache costs memoization, never the results."""
        import errno
        import os

        cache_dir = str(tmp_path / "c")
        cache = cache_configure(cache_dir)
        real_open = os.open

        def full_disk(path, *args, **kwargs):
            if str(path).startswith(cache_dir):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_open(path, *args, **kwargs)

        cfgs = _cfgs(3)
        with monkeypatch.context() as m:
            m.setattr(os, "open", full_disk)  # inherited by forked workers
            with Scheduler(jobs=jobs, cache_dir=cache_dir) as sched:
                results = sched.map(cfgs)
                s = sched.stats()
        assert s["failed"] == 0 and s["simulated"] == 3
        cache_configure(None)
        for got, want in zip(results, [run(c) for c in cfgs]):
            assert got.elapsed_s == want.elapsed_s
            assert got.phases == want.phases
        assert cache.stats()["write_errors"] == 3  # merged from workers
        assert cache.stats()["stores"] == 0
        assert len(RunCache(cache_dir)) == 0
