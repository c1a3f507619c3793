"""Multi-scheduler fabric: sharding, bit-identity, resume, lease handover."""

import os
import subprocess
import sys
import time

import pytest

from repro.cache import config_key, configure as cache_configure
from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import LENS
from repro.sched import (
    SchedulerError,
    ShardLeases,
    ShardedJournal,
    configure,
    run_fabric,
    shard_of,
)


@pytest.fixture(autouse=True)
def _no_ambient_state():
    cache_configure(None)
    configure(None)
    yield
    cache_configure(None)
    configure(None)


def _cfgs(n=8):
    return [
        RunConfig(machine=LENS, implementation="nonblocking", cores=4,
                  steps=2 + i, domain=(24, 24, 24))
        for i in range(n)
    ]


class TestShardOf:
    def test_alignment_with_journal_prefix(self):
        # Every key of one journal prefix lands in one task shard, so a
        # shard's lease holder is the only writer of its journal inodes.
        for nshards in (1, 7, 16, 256):
            for prefix in ("00", "0f", "a3", "ff"):
                shards = {
                    shard_of(prefix + tail, nshards)
                    for tail in ("0" * 62, "f" * 62, "abc123")
                }
                assert len(shards) == 1
                assert 0 <= shards.pop() < nshards

    def test_bad_nshards_rejected(self):
        for bad in (0, -1, 257):
            with pytest.raises(ValueError):
                shard_of("ab" + "0" * 62, bad)


class TestFabricRuns:
    def test_bit_identical_to_serial(self, tmp_path):
        cfgs = _cfgs(6)
        serial = [run(c) for c in cfgs]
        fr = run_fabric(cfgs, str(tmp_path / "fab"), owner="t", jobs=2,
                        nshards=4)
        assert len(fr.results) == len(cfgs)
        for a, b in zip(serial, fr.results):
            assert a.elapsed_s == b.elapsed_s
            assert a.phases == b.phases
            assert a.comm_stats == b.comm_stats
        assert fr.shards_run and fr.shards_replayed == 0
        assert fr.journal_counts["entries"] == len(cfgs)
        assert "owner=t" in fr.summary()

    def test_second_run_replays_from_the_journal(self, tmp_path):
        cfgs = _cfgs(6)
        root = str(tmp_path / "fab")
        first = run_fabric(cfgs, root, owner="a", jobs=1, nshards=4)
        second = run_fabric(cfgs, root, owner="b", jobs=1, nshards=4)
        assert second.stats.get("simulated", 0) == 0
        assert second.shards_run == []
        assert second.shards_replayed == len(set(first.shards_run))
        for a, b in zip(first.results, second.results):
            assert a.elapsed_s == b.elapsed_s and a.phases == b.phases

    def test_duplicate_configs_dedup_but_results_align(self, tmp_path):
        cfgs = _cfgs(3)
        batch = cfgs + cfgs[::-1]
        fr = run_fabric(batch, str(tmp_path / "fab"), jobs=1, nshards=2)
        assert len(fr.results) == len(batch)
        assert fr.journal_counts["entries"] == len(cfgs)
        for a, b in zip(fr.results[:3], fr.results[:2:-1]):
            assert a.elapsed_s == b.elapsed_s

    def test_non_cacheable_config_rejected(self, tmp_path):
        cfg = RunConfig(machine=LENS, implementation="nonblocking", cores=4,
                        steps=2, domain=(24, 24, 24), functional=True,
                        network="full")
        with pytest.raises(SchedulerError, match="cacheable"):
            run_fabric([cfg], str(tmp_path / "fab"))


class TestLeaseHandover:
    def test_dead_peer_shard_is_stolen_after_ttl(self, tmp_path):
        # A "dead" scheduler holds every shard lease and never renews:
        # the live fabric must wait out the ttl, steal, and finish.
        cfgs = _cfgs(4)
        root = tmp_path / "fab"
        nshards = 4
        dead = ShardLeases(str(root / "leases"), owner="dead", ttl=0.5)
        held = {shard_of(config_key(c), nshards) for c in cfgs}
        for s in held:
            assert dead.acquire(f"shard-{s:03d}")
        t0 = time.monotonic()
        fr = run_fabric(cfgs, str(root), owner="live", jobs=1,
                        nshards=nshards, ttl=5.0, timeout=60.0)
        assert time.monotonic() - t0 >= 0.5  # waited for the expiry
        assert len(fr.results) == len(cfgs)
        assert set(fr.shards_run) == held

    def test_timeout_on_perpetually_held_shard(self, tmp_path):
        cfgs = _cfgs(2)
        root = tmp_path / "fab"
        peer = ShardLeases(str(root / "leases"), owner="peer", ttl=120.0)
        for c in cfgs:
            s = shard_of(config_key(c), 2)
            peer.acquire(f"shard-{s:03d}")
        with pytest.raises(SchedulerError, match="timed out"):
            run_fabric(cfgs, str(root), owner="live", jobs=1, nshards=2,
                       ttl=120.0, poll_interval=0.01, timeout=0.5)


_PEER = """
import sys
from repro.core.config import RunConfig
from repro.machines import LENS
from repro.sched import run_fabric

root, owner, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
cfgs = [
    RunConfig(machine=LENS, implementation="nonblocking", cores=4,
              steps=2 + i, domain=(24, 24, 24))
    for i in range(n)
]
fr = run_fabric(cfgs, root, owner=owner, jobs=2, nshards=8, ttl=10.0)
for r in fr.results:
    print(f"RESULT {r.config.steps} {r.elapsed_s!r}")
print(fr.summary())
"""


class TestTwoProcesses:
    def test_concurrent_peers_split_work_and_agree(self, tmp_path):
        n = 12
        driver = tmp_path / "peer.py"
        driver.write_text(_PEER)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        root = str(tmp_path / "fab")
        procs = [
            subprocess.Popen(
                [sys.executable, str(driver), root, owner, str(n)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for owner in ("a", "b")
        ]
        outs = []
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            outs.append(out)
        results = [
            [line for line in out.splitlines() if line.startswith("RESULT")]
            for out in outs
        ]
        assert len(results[0]) == n
        assert results[0] == results[1]  # bit-identical across peers
        serial = [
            f"RESULT {c.steps} {run(c).elapsed_s!r}" for c in _cfgs(n)
        ]
        assert results[0] == serial  # and to a serial run
        journal = ShardedJournal(os.path.join(root, "journal"))
        assert len(journal) == n and journal.counts()["torn"] == 0
        journal.close()
