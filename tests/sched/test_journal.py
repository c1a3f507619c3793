"""Journal durability: roundtrip, corruption tolerance, SIGKILL resume."""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.sched import Journal, ShardedJournal, open_journal
from repro.sched.journal import JOURNAL_VERSION


PAYLOAD = {
    "elapsed_s": 0.125,
    "phases": {"compute": 0.1, "pack": 0.025},
    "comm_stats": {"messages_sent": 12, "bytes_sent": 4096},
}


class TestJournalFile:
    def test_roundtrip(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        with Journal(p) as j:
            j.record("k1", PAYLOAD)
            j.record("k2", dict(PAYLOAD, elapsed_s=0.25))
        j2 = Journal(p)
        assert len(j2) == 2
        assert "k1" in j2 and "k2" in j2
        assert j2.get("k1")["elapsed_s"] == 0.125
        assert j2.get("k2")["elapsed_s"] == 0.25
        assert j2.get("k1")["phases"] == PAYLOAD["phases"]
        assert j2.corrupt_lines == 0
        j2.close()

    def test_floats_roundtrip_exactly(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        value = 0.1 + 0.2  # 0.30000000000000004: repr round-trips
        with Journal(p) as j:
            j.record("k", dict(PAYLOAD, elapsed_s=value))
        j2 = Journal(p)
        assert j2.get("k")["elapsed_s"] == value
        j2.close()

    def test_torn_trailing_line_skipped(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        with Journal(p) as j:
            j.record("k1", PAYLOAD)
        with open(p, "a") as fh:
            fh.write('{"v": 1, "key": "k2", "elapsed')  # torn write
        j2 = Journal(p)
        assert len(j2) == 1 and "k1" in j2
        assert j2.corrupt_lines == 1
        j2.close()

    def test_wrong_version_skipped(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        doc = {"v": JOURNAL_VERSION + 1, "key": "k", **PAYLOAD}
        with open(p, "w") as fh:
            fh.write(json.dumps(doc) + "\n")
        j = Journal(p)
        assert len(j) == 0 and j.corrupt_lines == 1
        j.close()

    def test_ill_shaped_payload_skipped(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        with open(p, "w") as fh:
            fh.write(json.dumps({"v": JOURNAL_VERSION, "key": "k"}) + "\n")
            fh.write("[1, 2, 3]\n")
        j = Journal(p)
        assert len(j) == 0 and j.corrupt_lines == 2
        j.close()

    def test_duplicate_keys_last_wins(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        with Journal(p) as j:
            j.record("k", PAYLOAD)
            j.record("k", dict(PAYLOAD, elapsed_s=9.0))
        j2 = Journal(p)
        assert len(j2) == 1 and j2.get("k")["elapsed_s"] == 9.0
        j2.close()

    def test_corruption_tallied_by_kind(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        with open(p, "w") as fh:
            fh.write(json.dumps(
                {"v": JOURNAL_VERSION, "key": "good", **PAYLOAD}) + "\n")
            fh.write('{"v": 1, "key": "torn...\n')
            fh.write(json.dumps(
                {"v": JOURNAL_VERSION + 9, "key": "old", **PAYLOAD}) + "\n")
            fh.write(json.dumps({"v": JOURNAL_VERSION, "key": "bad"}) + "\n")
        j = Journal(p)
        assert len(j) == 1
        assert j.torn_lines == 1
        assert j.wrong_version_lines == 1
        assert j.ill_shaped_lines == 1
        assert j.corrupt_lines == 3
        counts = j.counts()
        assert counts["entries"] == 1 and counts["pending"] == 0
        assert counts["torn"] == counts["wrong_version"] == 1
        assert counts["ill_shaped"] == 1
        j.close()


class TestGroupCommit:
    def test_pending_records_visible_but_not_durable(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        j = Journal(p, flush_max_records=100, flush_interval=3600.0)
        j.record("k1", PAYLOAD)
        assert "k1" in j and j.get("k1")["elapsed_s"] == 0.125
        assert j.counts()["pending"] == 1
        assert _journal_lines(p) == 0  # buffered, not yet committed
        j.flush()
        assert j.counts()["pending"] == 0
        assert _journal_lines(p) == 1
        j.close()

    def test_auto_flush_on_max_records(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        j = Journal(p, flush_max_records=4, flush_interval=3600.0)
        for i in range(3):
            j.record(f"k{i}", PAYLOAD)
        assert _journal_lines(p) == 0
        j.record("k3", PAYLOAD)  # hits the batch bound
        assert _journal_lines(p) == 4
        j.close()

    def test_auto_flush_on_interval(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        j = Journal(p, flush_max_records=1000, flush_interval=0.05)
        j.record("k0", PAYLOAD)
        time.sleep(0.08)
        j.record("k1", PAYLOAD)  # aged past the interval: commits both
        assert _journal_lines(p) == 2
        j.close()

    def test_flush_max_one_restores_per_line_commit(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        j = Journal(p, flush_max_records=1)
        for i in range(3):
            j.record(f"k{i}", PAYLOAD)
            assert _journal_lines(p) == i + 1
        j.close()

    def test_close_flushes_pending(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        j = Journal(p, flush_max_records=1000, flush_interval=3600.0)
        j.record("k", PAYLOAD)
        j.close()
        assert _journal_lines(p) == 1
        j2 = Journal(p)
        assert "k" in j2
        j2.close()

    def test_record_threadsafe_under_flush_pressure(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        j = Journal(p, flush_max_records=7, flush_interval=3600.0)

        def _write(base):
            for i in range(50):
                j.record(f"{base}-{i}", PAYLOAD)

        threads = [
            threading.Thread(target=_write, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        j.close()
        j2 = Journal(p)
        assert len(j2) == 200 and j2.corrupt_lines == 0
        j2.close()


K1 = "00" + "a" * 62
K2 = "01" + "b" * 62
K3 = "ff" + "c" * 62


class TestShardedJournal:
    def test_roundtrip_across_shard_files(self, tmp_path):
        root = str(tmp_path / "j")
        j = ShardedJournal(root)
        j.record(K1, PAYLOAD)
        j.record(K2, dict(PAYLOAD, elapsed_s=0.5))
        j.record(K3, dict(PAYLOAD, elapsed_s=1.5))
        j.close()
        assert sorted(os.listdir(root)) == ["00.jsonl", "01.jsonl", "ff.jsonl"]
        j2 = ShardedJournal(root)
        assert len(j2) == 3 and set(j2.keys()) == {K1, K2, K3}
        assert j2.get(K2)["elapsed_s"] == 0.5
        assert j2.corrupt_lines == 0
        j2.close()

    def test_non_hex_key_rejected(self, tmp_path):
        j = ShardedJournal(str(tmp_path / "j"))
        with pytest.raises(ValueError, match="hex"):
            j.record("zz-not-hex", PAYLOAD)
        j.close()

    def test_refresh_sees_a_peer_commit(self, tmp_path):
        # The peer appends to a shard this journal has *already loaded*
        # (a never-loaded shard would be read fresh on first access).
        root = str(tmp_path / "j")
        mine = ShardedJournal(root)
        mine.record(K3, PAYLOAD)
        mine.flush()
        peer = ShardedJournal(root)
        peer_key = "ff" + "d" * 62
        peer.record(peer_key, dict(PAYLOAD, elapsed_s=2.0))
        peer.flush()
        assert peer_key not in mine  # not yet observed
        mine.refresh()
        assert peer_key in mine and mine.get(peer_key)["elapsed_s"] == 2.0
        assert K3 in mine  # own entries survive the refresh
        peer.close()
        mine.close()

    def test_refresh_keeps_own_pending_records(self, tmp_path):
        root = str(tmp_path / "j")
        mine = ShardedJournal(root, flush_max_records=100,
                              flush_interval=3600.0)
        mine.record(K1, PAYLOAD)  # pending, not durable
        peer = ShardedJournal(root)
        peer.record("00" + "d" * 62, dict(PAYLOAD, elapsed_s=3.0))
        peer.flush()  # same shard file as K1
        mine.refresh()
        assert K1 in mine  # pending overlay survives the shard re-read
        assert mine.get("00" + "d" * 62)["elapsed_s"] == 3.0
        peer.close()
        mine.close()

    def test_corruption_tallied_across_shards(self, tmp_path):
        root = tmp_path / "j"
        j = ShardedJournal(str(root))
        j.record(K1, PAYLOAD)
        j.close()
        with open(root / "00.jsonl", "a") as fh:
            fh.write('{"torn')
        with open(root / "ff.jsonl", "w") as fh:
            fh.write(json.dumps(
                {"v": JOURNAL_VERSION + 1, "key": K3, **PAYLOAD}) + "\n")
        j2 = ShardedJournal(str(root))
        assert len(j2) == 1
        assert j2.torn_lines == 1 and j2.wrong_version_lines == 1
        assert j2.counts()["entries"] == 1
        assert j2.corrupt_lines == 2
        j2.close()


class _TornWriteOnce:
    """File proxy whose first write lands half its bytes, then fails."""

    def __init__(self, fh):
        self._fh = fh
        self.failed = False

    def write(self, blob):
        if self.failed:
            return self._fh.write(blob)
        self.failed = True
        self._fh.write(blob[: len(blob) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestFailedCommit:
    """A commit that raises keeps its records pending for the next one."""

    def test_flat_journal_retries_after_failed_write(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        j = Journal(p, flush_max_records=100, flush_interval=3600.0)
        j._fh = torn = _TornWriteOnce(j._fh)
        j.record("k1", PAYLOAD)
        with pytest.raises(OSError):
            j.flush()
        assert torn.failed and "k1" in j
        assert j.counts()["pending"] == 1
        j.flush()
        assert j.counts()["pending"] == 0
        j.close()
        j2 = Journal(p)
        assert j2.get("k1") == PAYLOAD
        assert j2.torn_lines == 1  # the fragment, on a line of its own
        j2.close()

    def test_sharded_journal_retries_after_failed_write(self, tmp_path):
        root = str(tmp_path / "j")
        j = ShardedJournal(root, flush_max_records=100,
                           flush_interval=3600.0)
        j.record(K1, PAYLOAD)
        shard = j._shard("00")
        shard.fh = torn = _TornWriteOnce(open(shard.path, "a"))
        with pytest.raises(OSError):
            j.flush()
        assert torn.failed and K1 in j
        assert j.counts()["pending"] == 1
        j.flush()
        assert j.counts()["pending"] == 0
        j.close()
        j2 = ShardedJournal(root)
        assert j2.get(K1) == PAYLOAD
        assert j2.torn_lines == 1
        j2.close()


class TestOpenJournal:
    def test_jsonl_suffix_is_flat(self, tmp_path):
        j = open_journal(str(tmp_path / "j.jsonl"))
        assert isinstance(j, Journal)
        j.close()

    def test_directory_is_sharded(self, tmp_path):
        j = open_journal(str(tmp_path / "jdir"))
        assert isinstance(j, ShardedJournal)
        j.close()

    def test_existing_flat_file_stays_flat(self, tmp_path):
        p = tmp_path / "legacy"  # no telling suffix
        with Journal(str(p)) as j:
            j.record("k", PAYLOAD)
        j2 = open_journal(str(p))
        assert isinstance(j2, Journal) and "k" in j2
        j2.close()


_DRIVER = """
import sys
from repro.core.config import RunConfig
from repro.machines import LENS
from repro.sched import Journal, Scheduler

journal_path, cache_dir, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
cfgs = [
    RunConfig(machine=LENS, implementation="nonblocking", cores=4,
              steps=2 + i, domain=(24, 24, 24))
    for i in range(n)
]
sched = Scheduler(jobs=2, cache_dir=cache_dir, journal=Journal(journal_path))
sched.map(cfgs)
print("SUMMARY " + sched.summary(), flush=True)
sched.close()
"""


def _journal_lines(path):
    try:
        with open(path) as fh:
            return sum(1 for line in fh if line.strip())
    except OSError:
        return 0


def _reap_group(proc):
    """Kill what is left of a killed child's session: its orphaned pool workers."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class TestSigkillResume:
    def test_resume_after_sigkill_mid_batch(self, tmp_path):
        """A SIGKILLed batch restarts from its journaled tasks."""
        jp = str(tmp_path / "resume.jsonl")
        cache_dir = str(tmp_path / "cache")
        driver = tmp_path / "driver.py"
        driver.write_text(_DRIVER)
        n = 120
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )

        proc = subprocess.Popen(
            [sys.executable, str(driver), jp, cache_dir, str(n)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        # Kill as soon as a few results are durably journaled.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if _journal_lines(jp) >= 3 or proc.poll() is not None:
                break
            time.sleep(0.005)
        killed = proc.poll() is None
        if killed:
            proc.send_signal(signal.SIGKILL)
        proc.wait()
        _reap_group(proc)
        done_at_kill = _journal_lines(jp)
        assert done_at_kill >= 3, "driver finished nothing before the kill"

        # Second run against the same journal resumes, not restarts.
        out = subprocess.run(
            [sys.executable, str(driver), jp, cache_dir, str(n)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        summary = [
            line for line in out.stdout.splitlines()
            if line.startswith("SUMMARY")
        ][0]
        fields = dict(
            kv.split("=") for kv in summary.split() if "=" in kv
        )
        journal_hits = int(fields["journal-hits"])
        cache_hits = int(fields["cache-hits"])
        simulated = int(fields["simulated"])
        # Everything journaled before the kill is replayed; results a
        # worker cached but the parent never journaled (the kill window)
        # come back as cache hits; the remainder is simulated.  Together
        # they cover the whole batch.
        assert journal_hits >= min(done_at_kill, n) - 1  # minus a torn line
        assert journal_hits + cache_hits + simulated == n
        if killed:
            assert simulated > 0, "kill landed after the batch completed"
        # Third run: the journal now covers the batch completely.
        out2 = subprocess.run(
            [sys.executable, str(driver), jp, cache_dir, str(n)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert "journal-hits=%d" % n in out2.stdout


_ACK_DRIVER = """
import sys
from repro.cache import config_key
from repro.core.config import RunConfig
from repro.machines import LENS
from repro.sched import Journal, Scheduler

journal_path, n = sys.argv[1], int(sys.argv[2])
cfgs = [
    RunConfig(machine=LENS, implementation="nonblocking", cores=4,
              steps=2 + i, domain=(24, 24, 24))
    for i in range(n)
]
# Wide group-commit bounds: only map()'s surface-time flush commits, so
# durability rests entirely on the invariant under test.
sched = Scheduler(
    jobs=2,
    journal=Journal(journal_path, flush_max_records=10_000,
                    flush_interval=3600.0),
)
for i in range(0, n, 4):
    batch = cfgs[i:i + 4]
    sched.map(batch)
    # A result is in hand: its record must already be durable.
    for c in batch:
        print("ACK " + config_key(c), flush=True)
sched.close()
"""


class TestSigkillBetweenFlushes:
    def test_acknowledged_results_survive_the_kill(self, tmp_path):
        """Group commit loses only records never surfaced to a caller."""
        jp = str(tmp_path / "ack.jsonl")
        driver = tmp_path / "driver.py"
        driver.write_text(_ACK_DRIVER)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [sys.executable, str(driver), jp, "64"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        acked = []

        def _collect():
            for line in proc.stdout:
                if line.startswith("ACK "):
                    acked.append(line.split()[1])

        reader = threading.Thread(target=_collect, daemon=True)
        reader.start()
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if len(acked) >= 8 or proc.poll() is not None:
                break
            time.sleep(0.005)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()
        _reap_group(proc)
        reader.join(timeout=10.0)
        assert len(acked) >= 8, "driver surfaced nothing before the kill"

        survivor = Journal(jp)
        missing = [k for k in acked if k not in survivor]
        assert not missing, (
            f"{len(missing)} acknowledged records lost by the kill"
        )
        survivor.close()
