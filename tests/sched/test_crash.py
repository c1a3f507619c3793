"""Worker-crash recovery: bounded retry, quarantine and poisoning."""

import logging

import pytest

from repro.cache import configure as cache_configure
from repro.core.config import RunConfig
from repro.machines import LENS
from repro.sched import PoisonedConfigError, Scheduler, configure
from sched_helpers import assert_no_payload_bytes


@pytest.fixture(autouse=True)
def _quiet_and_clean():
    cache_configure(None)
    configure(None)
    logging.getLogger("repro.sched").setLevel(logging.ERROR)
    yield
    logging.getLogger("repro.sched").setLevel(logging.NOTSET)
    cache_configure(None)
    configure(None)


def _cfgs(n=4):
    return [
        RunConfig(machine=LENS, implementation="nonblocking", cores=2**i,
                  steps=2, domain=(24, 24, 24))
        for i in range(n)
    ]


class TestCrashRetry:
    def test_transient_crash_is_retried(self, tmp_path):
        cfgs = _cfgs(4)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            sched.fault_injector = (
                lambda cfg, attempts: cfg.cores == 2 and attempts == 0
            )
            results = sched.map(cfgs)
            s = sched.stats()
        assert len(results) == 4
        assert s["crashes"] >= 1
        assert s["retries"] >= 1
        assert s["poisoned"] == 0

    def test_deterministic_crasher_poisoned_innocents_survive(self, tmp_path):
        """Only the config that crashes *solo* is poisoned.

        Co-scheduled innocents accumulate suspicion from ambiguous pool
        breaks but are exonerated by their solo confirmation run.
        """
        cfgs = _cfgs(4)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c"),
                       max_retries=2) as sched:
            sched.fault_injector = lambda cfg, attempts: cfg.cores == 4
            out = sched.map(cfgs, return_exceptions=True)
            s = sched.stats()
            poisoned_log = list(sched.poisoned)
        kinds = [type(r).__name__ for r in out]
        assert kinds == [
            "RunResult", "RunResult", "PoisonedConfigError", "RunResult"
        ]
        assert s["poisoned"] == 1
        assert len(poisoned_log) == 1
        assert poisoned_log[0]["cores"] == 4
        assert poisoned_log[0]["state"] == "poisoned"

    def test_records_settled_after_crashes_hold_no_payload_bytes(
        self, tmp_path
    ):
        """Crash retries re-pickle their chunk: nothing keeps the bytes."""
        cfgs = _cfgs(4)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c"),
                       max_retries=1) as sched:
            sched.fault_injector = lambda cfg, attempts: (
                cfg.cores == 4 or (cfg.cores == 2 and attempts == 0))
            sched.map(cfgs, return_exceptions=True)
            records = list(sched._memo.values())
            assert sched.stats()["poisoned"] == 1
            assert_no_payload_bytes(sched)
        assert len(records) == 4

    def test_poisoned_raises_by_default(self, tmp_path):
        cfgs = _cfgs(2)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c"),
                       max_retries=0) as sched:
            sched.fault_injector = lambda cfg, attempts: cfg.cores == 1
            with pytest.raises(PoisonedConfigError):
                sched.map(cfgs)

    def test_batch_survives_and_results_match_serial(self, tmp_path):
        """Crash recovery must not alter surviving results."""
        from repro.core.runner import run

        cfgs = _cfgs(4)
        serial = [run(c) for c in cfgs]
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            sched.fault_injector = (
                lambda cfg, attempts: cfg.cores == 8 and attempts == 0
            )
            out = sched.map(cfgs)
        for a, b in zip(out, serial):
            assert a.elapsed_s == b.elapsed_s
            assert a.phases == b.phases

    def test_pool_broken_at_submit_is_retried(self, tmp_path):
        """A pool an earlier crash already broke can fail the *submit* of
        a later chunk; that chunk must take the crash-retry path too,
        never raise out of map()."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.core.runner import run

        class BrokenOnSecondSubmit(Scheduler):
            submits = 0

            def _executor(self):
                self.submits += 1
                if self.submits == 2:
                    raise BrokenProcessPool("broken by an earlier chunk")
                return super()._executor()

        cfgs = _cfgs(4)
        with BrokenOnSecondSubmit(jobs=2, cache_dir=str(tmp_path / "c"),
                                  chunk_max_tasks=1) as sched:
            out = sched.map(cfgs)
            s = sched.stats()
        assert [r.elapsed_s for r in out] == [run(c).elapsed_s for c in cfgs]
        assert s["crashes"] == 1
        assert s["retries"] >= 1
        assert s["poisoned"] == 0

    def test_poisoned_error_names_the_config(self):
        cfg = _cfgs(1)[0]
        err = PoisonedConfigError(cfg, attempts=3)
        msg = str(err)
        assert "nonblocking" in msg and "Lens" in msg
        assert err.cfg is cfg and err.attempts == 3

    def test_crash_results_still_journaled(self, tmp_path):
        """Survivors of a crashy batch land in the journal for resume."""
        from repro.sched import ShardedJournal

        cfgs = _cfgs(3)
        jp = str(tmp_path / "j.jsonl")
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c"), journal=jp,
                       max_retries=1) as sched:
            sched.fault_injector = lambda cfg, attempts: cfg.cores == 2
            sched.map(cfgs, return_exceptions=True)
        j = ShardedJournal(jp)
        assert len(j) == 2  # the two survivors; the poisoned one is absent
        j.close()
