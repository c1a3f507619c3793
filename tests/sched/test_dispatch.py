"""Pool dispatch: chunks leave while their batch is keyed, one pickle each."""

import pickle
import sys
import threading
import types

import pytest

import repro.cache as cache_mod
import repro.sched.scheduler as scheduler_mod
import repro.sched.task as task_mod
from repro.cache import config_key, configure as cache_configure
from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import LENS, YONA
from repro.perturb.spec import PRESETS
from repro.sched import Scheduler, ShardedJournal, configure
from repro.sched.worker import pack_chunk
from sched_helpers import StubPool


@pytest.fixture(autouse=True)
def _no_ambient_state():
    cache_configure(None)
    configure(None)
    yield
    cache_configure(None)
    configure(None)


def _distinct(n, machine=LENS):
    """``n`` cheap configs on one machine with distinct keys."""
    return [
        RunConfig(machine=machine, implementation="nonblocking", cores=4,
                  steps=2, domain=(24, 24, 24), seed=i + 1)
        for i in range(n)
    ]


class TestDispatchWhileKeying:
    @pytest.mark.parametrize(
        "cpus, settle, order",
        [
            # One CPU left free: one chunk runs while the batch is keyed,
            # the rest leave once the last config is keyed.
            (2, False, "8k s 56k 7s"),
            # A chunk that settled frees its CPU for the next ready one.
            (2, True, "8k s 8k s 8k s 8k s 8k s 8k s 8k s 8k s"),
            (3, False, "8k s 8k s 48k 6s"),
        ],
    )
    def test_chunks_leave_while_the_batch_is_keyed(
        self, monkeypatch, cpus, settle, order
    ):
        """64 configs over 2 workers make chunks of 64 / (2 * 4) = 8: the
        first reaches the pool right after its eighth config is keyed,
        long before the last one; later ones wait for a free CPU."""
        log = []
        real = cache_mod.config_key

        def keyed(cfg):
            log.append("k")
            return real(cfg)

        monkeypatch.setattr(cache_mod, "config_key", keyed)
        monkeypatch.setattr(scheduler_mod, "_cpus", lambda: cpus)
        pool = StubPool(log, settle=settle)
        with Scheduler(jobs=2) as sched:
            sched._exec = pool
            sched.submit(_distinct(64))
        runs = []
        for event in log:
            if runs and runs[-1][1] == event:
                runs[-1][0] += 1
            else:
                runs.append([1, event])
        assert " ".join(f"{n}{e}" if n > 1 else e for n, e in runs) == order

    def test_a_mostly_warm_batch_spreads_its_cold_configs(self, tmp_path):
        cfgs = _distinct(160)
        cold = range(0, 160, 10)
        journal = ShardedJournal(str(tmp_path / "j.jsonl"))
        for i, cfg in enumerate(cfgs):
            if i not in cold:
                journal.record(config_key(cfg), {
                    "elapsed_s": 1.0, "phases": {}, "comm_stats": {},
                })
        pool = StubPool()
        with Scheduler(jobs=2, journal=journal) as sched:
            sched._exec = pool
            sched.submit(cfgs)
            assert sched.stats()["journal_hits"] == 160 - len(cold)
        # No chunk of 160 / 8 = 20 ever fills, so the 16 cold configs are
        # split by the same rule at the end: min(16, 2 * 4) chunks.
        chunks = pool.chunks()
        assert [len(c) for c in chunks] == [2] * 8
        keys = [item["key"].hex() for c in chunks for item in c]
        assert keys == [config_key(cfgs[i]) for i in cold]


class TestOnePicklePerChunk:
    def test_a_chunk_writes_its_shared_machine_once(self):
        full, single = StubPool(), StubPool()
        with Scheduler(jobs=2) as sched:
            sched._exec = full
            sched.submit(_distinct(256))  # chunks of 32
        with Scheduler(jobs=2) as sched:
            sched._exec = single
            sched.submit(_distinct(1))
        assert len(full.chunks()[0]) == 32 and len(single.chunks()[0]) == 1
        assert len(full.blobs[0]) < 3 * len(single.blobs[0])

    def test_a_packed_config_unpickles_to_the_same_config(self):
        noisy = RunConfig(machine=YONA, implementation="hybrid_overlap",
                          cores=48, threads_per_task=6, box_thickness=2,
                          domain=(96, 96, 96), seed=7, noise=PRESETS["low"])
        cfgs = [noisy, noisy.with_(seed=8)] + _distinct(2)
        expected = [dict(c.__getstate__()) for c in cfgs]
        keys = [config_key(c) for c in cfgs]  # memos stay behind
        items = pickle.loads(pack_chunk(
            [{"cfg": c, "key": bytes.fromhex(k)} for c, k in zip(cfgs, keys)]
        ))
        back = [item["cfg"] for item in items]
        for cfg, state, key, got in zip(cfgs, expected, keys, back):
            assert type(got) is RunConfig and got == cfg
            assert got.__dict__ == state
            assert all(sys.intern(k) is k for k in got.__dict__)
            assert config_key(got) == key
        assert back[0].machine is back[1].machine
        assert back[0].noise is back[1].noise

    def test_pooled_results_match_serial(self, tmp_path):
        cfgs = _distinct(40) + _distinct(8, machine=YONA)
        with Scheduler(jobs=2, cache_dir=str(tmp_path / "c")) as sched:
            out = sched.map(cfgs)
        for got, cfg in zip(out, cfgs):
            ref = run(cfg)
            assert got.elapsed_s == ref.elapsed_s
            assert got.phases == ref.phases
            assert got.comm_stats == ref.comm_stats


class TestDrainFromCompletionQueue:
    def test_drain_checks_are_linear_in_tasks(self, monkeypatch):
        """Settled chunks are queued for the drainer: no record or future
        is rescanned per wake-up, so the checks stay linear in tasks."""
        checks = [0]

        class CountingEvent(threading.Event):
            def is_set(self):
                checks[0] += 1
                return super().is_set()

        monkeypatch.setattr(
            task_mod, "threading", types.SimpleNamespace(Event=CountingEvent)
        )
        cfgs = _distinct(240)
        with Scheduler(jobs=2, chunk_max_tasks=2) as sched:
            out = sched.map(cfgs)
        assert len(out) == len(cfgs) and sched.stats()["simulated"] == 240
        # submit, chunk settle, finish and the drainer's front pointer
        # check each record about once; the timed-out waits add a few.
        assert checks[0] <= 6 * len(cfgs)

    def test_concurrent_drainers_share_the_completion_queue(self):
        """Four threads map overlapping batches: whichever drainer takes a
        settled chunk settles it for all, every distinct config runs once
        and each thread gets the serial results."""
        cfgs = _distinct(48)
        batches = [cfgs[i::3] + cfgs[:8] for i in range(3)] + [cfgs[::-1]]
        outs = {}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Scheduler(jobs=2, chunk_max_tasks=2) as sched:
                threads = [
                    threading.Thread(
                        target=lambda t=t, b=b: outs.__setitem__(t, sched.map(b))
                    )
                    for t, b in enumerate(batches)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert sched.stats()["simulated"] == len(cfgs)
        finally:
            sys.setswitchinterval(old)
        ref = {id(c): run(c).elapsed_s for c in cfgs}
        for t, batch in enumerate(batches):
            assert [r.elapsed_s for r in outs[t]] == [ref[id(c)] for c in batch]
