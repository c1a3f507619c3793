"""Journal durability: roundtrip, corruption tolerance, commit, SIGKILL resume."""

import errno
import filecmp
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cache import MODEL_VERSION, RunCache, config_key
from repro.cache import configure as cache_configure
from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import LENS
from repro.sched import Scheduler, ShardedJournal, configure


PAYLOAD = {
    "elapsed_s": 0.125,
    "phases": {"compute": 0.1, "pack": 0.025},
    "comm_stats": {"messages_sent": 12, "bytes_sent": 4096},
}

K1 = "00" + "a" * 62
K2 = "01" + "b" * 62
K3 = "ff" + "c" * 62

#: A journal of the older single-file format, written by that format's
#: writer for ``sweep --machine lens --impl nonblocking bulk --cores 16 32
#: --jobs 1 --no-cache``: 20 lines of ``{"comm_stats", "elapsed_s",
#: "key", "phases", "v": 1}``.
FLAT_FIXTURE = os.path.join(os.path.dirname(__file__), "flat_journal_v1.jsonl")


@pytest.fixture(autouse=True)
def _no_ambient_state():
    cache_configure(None)
    configure(None)
    yield
    cache_configure(None)
    configure(None)


def _line(key, **fields):
    """A segment line in the form the store writes."""
    doc = {"key": key, "model_version": MODEL_VERSION, **fields}
    return json.dumps(doc, separators=(",", ":")) + "\n"


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` made from now on, as the inode it synced."""
    synced = []
    real = os.fsync

    def counting(fd):
        synced.append(os.fstat(fd).st_ino)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return synced


def _inodes(root):
    return {os.stat(p).st_ino for p in glob.glob(os.path.join(root, "*.jsonl"))}


class TestJournalFile:
    def test_roundtrip(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        with ShardedJournal(p) as j:
            j.record(K1, PAYLOAD)
            j.record(K2, dict(PAYLOAD, elapsed_s=0.25))
        j2 = ShardedJournal(p)
        assert len(j2) == 2
        assert j2.has_key(K1) and j2.has_key(K2)
        assert j2.replay(K1)["elapsed_s"] == 0.125
        assert j2.replay(K2)["elapsed_s"] == 0.25
        assert j2.replay(K1)["phases"] == PAYLOAD["phases"]
        assert j2.counts()["torn"] == 0
        j2.close()

    def test_floats_roundtrip_exactly(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        value = 0.1 + 0.2  # 0.30000000000000004: repr round-trips
        with ShardedJournal(p) as j:
            j.record(K1, dict(PAYLOAD, elapsed_s=value))
        j2 = ShardedJournal(p)
        assert j2.replay(K1)["elapsed_s"] == value
        j2.close()

    def test_torn_trailing_line_skipped(self, tmp_path):
        p = tmp_path / "j.jsonl"
        with ShardedJournal(str(p)) as j:
            j.record(K1, PAYLOAD)
        with open(p / "00.jsonl", "a") as fh:
            fh.write('{"key":"' + K2 + '","elapsed')  # torn write
        j2 = ShardedJournal(str(p))
        # Not yet a complete line: left for a later read, not tallied.
        assert len(j2) == 1 and j2.has_key(K1)
        assert j2.counts()["torn"] == 0
        with open(p / "00.jsonl", "a") as fh:
            fh.write("\n")  # a later commit ends the fragment's line
        j3 = ShardedJournal(str(p))
        assert len(j3) == 1 and not j3.has_key(K2)
        assert j3.counts()["torn"] == 1

    def test_wrong_version_skipped(self, tmp_path):
        p = tmp_path / "j"
        p.mkdir()
        doc = {"key": K1, "model_version": "pr0-other", **PAYLOAD}
        (p / "00.jsonl").write_text(json.dumps(doc) + "\n")
        j = ShardedJournal(str(p))
        assert j.replay(K1) is None  # a miss, re-simulated on demand
        j.record(K1, PAYLOAD)  # and superseded by the fresh line
        assert ShardedJournal(str(p)).replay(K1) == PAYLOAD
        j.close()

    def test_ill_shaped_payload_skipped(self, tmp_path):
        p = tmp_path / "j"
        p.mkdir()
        (p / "00.jsonl").write_text(_line(K1) + "[1, 2, 3]\n")
        j = ShardedJournal(str(p))
        assert j.replay(K1) is None
        assert j.counts()["torn"] == 1  # the line without a key head
        j.close()

    def test_duplicate_keys_last_wins(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        with ShardedJournal(p) as j:
            j.record(K1, PAYLOAD)
            j.record(K1, dict(PAYLOAD, elapsed_s=9.0))
        j2 = ShardedJournal(p)
        assert len(j2) == 1 and j2.replay(K1)["elapsed_s"] == 9.0
        j2.close()

    def test_only_torn_lines_are_tallied(self, tmp_path):
        """Torn lines are counted; wrong-version and ill-shaped entries
        are indexed, and are misses like any unusable cache entry."""
        p = tmp_path / "j"
        p.mkdir()
        good, old, bad = K1, "00" + "d" * 62, "00" + "e" * 62
        (p / "00.jsonl").write_text(
            _line(good, **PAYLOAD)
            + '{"key":"torn...\n'
            + json.dumps({"key": old, "model_version": "pr0", **PAYLOAD},
                         separators=(",", ":")) + "\n"
            + _line(bad)
        )
        j = ShardedJournal(str(p))
        assert j.replay(good) == PAYLOAD
        assert j.replay(old) is None and j.replay(bad) is None
        assert j.counts() == {"entries": 3, "pending": 0, "torn": 1}
        j.close()


class TestGroupCommit:
    def test_pending_records_visible_but_not_durable(self, tmp_path, fsyncs):
        p = str(tmp_path / "j.jsonl")
        j = ShardedJournal(p)
        j.record(K1, PAYLOAD)
        assert j.has_key(K1) and j.replay(K1)["elapsed_s"] == 0.125
        assert j.counts()["pending"] == 1
        assert fsyncs == []  # appended, not yet committed
        j.flush()
        assert j.counts()["pending"] == 0
        assert fsyncs == [os.stat(os.path.join(p, "00.jsonl")).st_ino]
        j.close()

    def test_commit_fsyncs_each_dirty_segment_once(self, tmp_path, fsyncs):
        root = str(tmp_path / "j")
        j = ShardedJournal(root)
        for key in (K1, "00" + "d" * 62, K3, "ff" + "d" * 62):
            j.record(key, PAYLOAD)
        j.flush()
        assert sorted(fsyncs) == sorted(_inodes(root))  # 00 and ff, once each
        j.flush()  # nothing appended since: nothing to sync
        assert len(fsyncs) == 2
        j.close()

    def test_close_flushes_pending(self, tmp_path, fsyncs):
        p = str(tmp_path / "j.jsonl")
        j = ShardedJournal(p)
        j.record(K1, PAYLOAD)
        j.close()
        assert len(fsyncs) == 1
        j2 = ShardedJournal(p)
        assert j2.has_key(K1)
        j2.close()

    def test_record_threadsafe_under_flush_pressure(self, tmp_path):
        p = str(tmp_path / "j.jsonl")
        j = ShardedJournal(p)
        done = threading.Event()

        def _write(base):
            for i in range(50):
                j.record(f"{base:02x}{i:062x}", PAYLOAD)

        def _commit():
            while not done.is_set():
                j.flush()

        committer = threading.Thread(target=_commit)
        committer.start()
        threads = [
            threading.Thread(target=_write, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done.set()
        committer.join()
        j.close()
        j2 = ShardedJournal(p)
        assert len(j2) == 200 and j2.counts()["torn"] == 0
        j2.close()


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
        assert len(j2) == 3
        assert j2.replay(K2)["elapsed_s"] == 0.5
        assert j2.counts()["torn"] == 0
        j2.close()

    def test_non_hex_key_rejected(self, tmp_path):
        j = ShardedJournal(str(tmp_path / "j"))
        with pytest.raises(ValueError, match="hex"):
            j.record("zz-not-hex", PAYLOAD)
        j.close()

    def test_refresh_sees_a_peer_commit(self, tmp_path):
        # The peer appends to a segment this handle has *already indexed*:
        # a lookup miss reads what was appended since the last look.
        root = str(tmp_path / "j")
        mine = ShardedJournal(root)
        mine.record(K3, PAYLOAD)
        mine.flush()
        peer = ShardedJournal(root)
        peer_key = "ff" + "d" * 62
        peer.record(peer_key, dict(PAYLOAD, elapsed_s=2.0))
        peer.flush()
        assert mine.has_key(peer_key)
        assert mine.replay(peer_key)["elapsed_s"] == 2.0
        assert mine.has_key(K3)  # own entries stay indexed
        peer.close()
        mine.close()

    def test_refresh_keeps_own_pending_records(self, tmp_path):
        root = str(tmp_path / "j")
        mine = ShardedJournal(root)
        mine.record(K1, PAYLOAD)  # pending, not durable
        peer = ShardedJournal(root)
        peer.record("00" + "d" * 62, dict(PAYLOAD, elapsed_s=3.0))
        peer.flush()  # same segment file as K1
        assert mine.replay("00" + "d" * 62)["elapsed_s"] == 3.0
        assert mine.has_key(K1) and mine.counts()["pending"] == 1
        peer.close()
        mine.close()

    def test_corruption_tallied_across_shards(self, tmp_path):
        root = tmp_path / "j"
        j = ShardedJournal(str(root))
        j.record(K1, PAYLOAD)
        j.close()
        with open(root / "00.jsonl", "a") as fh:
            fh.write('{"torn\n')
        with open(root / "ff.jsonl", "w") as fh:
            fh.write(json.dumps({"v": 1, "key": K3, **PAYLOAD}) + "\n")
        j2 = ShardedJournal(str(root))
        assert len(j2) == 1
        assert j2.counts() == {"entries": 1, "pending": 0, "torn": 2}
        j2.close()


def _torn_write_once(monkeypatch, short=False):
    """Make the next ``os.write`` land half its bytes, then fail.

    ``short`` returns the short count instead of raising ``ENOSPC``.
    Returns a list that holds True once the failure happened.
    """
    real = os.write
    failed = []

    def write(fd, data):
        if failed:
            return real(fd, data)
        failed.append(True)
        n = real(fd, data[: len(data) // 2])
        if short:
            return n
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", write)
    return failed


class TestFailedCommit:
    """A failed append stays pending; the next commit rewrites it."""

    def test_flat_journal_retries_after_failed_write(self, tmp_path,
                                                     monkeypatch):
        p = str(tmp_path / "j.jsonl")
        j = ShardedJournal(p)
        torn = _torn_write_once(monkeypatch)
        with pytest.raises(OSError):
            j.record(K1, PAYLOAD)
        assert torn and j.has_key(K1)
        assert j.counts()["pending"] == 1
        j.flush()
        assert j.counts()["pending"] == 0
        j.close()
        j2 = ShardedJournal(p)
        assert j2.replay(K1) == PAYLOAD
        assert j2.counts()["torn"] == 1  # the fragment, on a line of its own
        j2.close()

    def test_sharded_journal_retries_after_failed_write(self, tmp_path,
                                                        monkeypatch):
        root = str(tmp_path / "j")
        j = ShardedJournal(root)
        torn = _torn_write_once(monkeypatch, short=True)
        with pytest.raises(OSError):
            j.record(K1, PAYLOAD)
        assert torn and j.has_key(K1)
        assert j.counts()["pending"] == 1
        j.flush()
        assert j.counts()["pending"] == 0
        j.close()
        j2 = ShardedJournal(root)
        assert j2.replay(K1) == PAYLOAD
        assert j2.counts()["torn"] == 1
        j2.close()

    def test_commit_that_fails_keeps_the_lines_pending(self, tmp_path,
                                                       monkeypatch):
        root = str(tmp_path / "j")
        j = ShardedJournal(root)
        real = os.fsync

        def full(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        j.record(K1, PAYLOAD)
        monkeypatch.setattr(os, "fsync", full)
        with pytest.raises(OSError):
            j.flush()
        assert j.counts()["pending"] == 1
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(real(fd)))
        j.flush()
        assert len(synced) == 1 and j.counts()["pending"] == 0
        j.close()


class TestOpenJournal:
    def test_jsonl_suffix_is_a_directory(self, tmp_path):
        p = tmp_path / "j.jsonl"
        with ShardedJournal(str(p)) as j:
            j.record(K1, PAYLOAD)
        assert p.is_dir() and (p / "00.jsonl").is_file()

    def test_directory_is_sharded(self, tmp_path):
        j = ShardedJournal(str(tmp_path / "jdir"))
        j.record(K3, PAYLOAD)
        assert os.listdir(tmp_path / "jdir") == ["ff.jsonl"]
        j.close()

    def test_existing_flat_file_is_imported(self, tmp_path, monkeypatch):
        p = tmp_path / "sweep.jsonl"
        shutil.copy(FLAT_FIXTURE, p)
        with open(FLAT_FIXTURE) as fh:
            entries = [json.loads(line) for line in fh]
        with ShardedJournal(str(p)) as j:
            for doc in entries:
                assert j.replay(doc["key"]) == {
                    k: doc[k] for k in ("elapsed_s", "phases", "comm_stats")
                }
        assert p.is_dir()
        # The original stays beside the store, byte for byte.
        assert filecmp.cmp(FLAT_FIXTURE, str(p) + ".flat", shallow=False)
        assert not os.path.exists(str(p) + ".import")
        # Imported once: opening again reads no flat file.
        monkeypatch.setattr("repro.sched.journal._flat_entry", None)
        assert len(ShardedJournal(str(p))) == len(entries)

    def test_interrupted_import_is_redone_or_finished(self, tmp_path):
        with open(FLAT_FIXTURE) as fh:
            n = sum(1 for _ in fh)
        # Killed while importing: a partial staging directory.
        p = tmp_path / "a.jsonl"
        shutil.copy(FLAT_FIXTURE, p)
        (tmp_path / "a.jsonl.import").mkdir()
        (tmp_path / "a.jsonl.import" / "00.jsonl").write_text('{"key":"00x\n')
        assert len(ShardedJournal(str(p))) == n
        # Killed between the two renames: the staging directory is whole.
        q = tmp_path / "b.jsonl"
        shutil.copy(FLAT_FIXTURE, q)
        ShardedJournal(str(q)).close()
        os.rename(q, str(q) + ".import")
        assert len(ShardedJournal(str(q))) == n
        assert not os.path.exists(str(q) + ".import")

    def test_flat_fixture_replays_without_simulating(self, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "sweep.jsonl"
        shutil.copy(FLAT_FIXTURE, p)
        with open(FLAT_FIXTURE) as fh:
            n = sum(1 for _ in fh)
        assert main(["sweep", "--machine", "lens", "--impl", "nonblocking",
                     "bulk", "--cores", "16", "32", "--jobs", "1",
                     "--no-cache", "--journal", str(p)]) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("scheduler:")][0]
        assert " simulated=0 " in line
        assert f" journal-hits={n} " in line


def _cfgs(n):
    return [
        RunConfig(machine=LENS, implementation="nonblocking", cores=4,
                  steps=2 + i, domain=(24, 24, 24))
        for i in range(n)
    ]


class TestDurableCommit:
    """When ``map`` fsyncs its journal, and how often."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_map_commits_each_dirty_segment_once_at_the_end(
        self, tmp_path, fsyncs, jobs
    ):
        cfgs = _cfgs(12)
        root = str(tmp_path / "j")
        at_completion = []
        with Scheduler(jobs=jobs, journal=root) as sched:
            sched.add_completion_hook(
                lambda rec: at_completion.append(len(fsyncs)))
            results = sched.map(cfgs)
            synced = list(fsyncs)
            assert sched.stats()["simulated"] == len(cfgs)
        # No fsync while results were still being produced ...
        assert at_completion == [0] * len(cfgs)
        # ... and exactly one per segment the batch appended to.
        prefixes = {config_key(c)[:2] for c in cfgs}
        assert len(synced) == len(prefixes)
        assert sorted(synced) == sorted(_inodes(root))
        # A journal line is a cache line.
        plain = RunCache(root)
        for cfg, got in zip(cfgs, results):
            assert plain.get(cfg) == got

    def test_cache_hit_is_durable_in_the_journal(self, tmp_path, fsyncs):
        cfgs = _cfgs(4)
        cache_dir = str(tmp_path / "c")
        with Scheduler(jobs=1, cache_dir=cache_dir) as sched:
            sched.map(cfgs)  # primes the cache only
        assert fsyncs == []  # the cache never fsyncs
        root = str(tmp_path / "j")
        with Scheduler(jobs=1, cache_dir=cache_dir, journal=root) as sched:
            results = sched.map(cfgs)
            assert sched.stats()["cache_hits"] == len(cfgs)
            synced = list(fsyncs)
        assert sorted(synced) == sorted(_inodes(root))
        plain = RunCache(root)
        for cfg, got in zip(cfgs, results):
            assert plain.get(cfg) == got == run(cfg)


_DRIVER = """
import sys
from repro.core.config import RunConfig
from repro.machines import LENS
from repro.sched import Scheduler, ShardedJournal

journal_path, cache_dir, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
cfgs = [
    RunConfig(machine=LENS, implementation="nonblocking", cores=4,
              steps=2 + i, domain=(24, 24, 24))
    for i in range(n)
]
sched = Scheduler(jobs=2, cache_dir=cache_dir,
                  journal=ShardedJournal(journal_path))
sched.map(cfgs)
print("SUMMARY " + sched.summary(), flush=True)
sched.close()
"""


def _journal_lines(path):
    """Complete lines across a journal directory's segments."""
    lines = 0
    for segment in glob.glob(os.path.join(path, "*.jsonl")):
        try:
            with open(segment) as fh:
                lines += sum(1 for line in fh if line.endswith("\n"))
        except OSError:
            pass
    return lines


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
from repro.sched import Scheduler, ShardedJournal

journal_path, n = sys.argv[1], int(sys.argv[2])
cfgs = [
    RunConfig(machine=LENS, implementation="nonblocking", cores=4,
              steps=2 + i, domain=(24, 24, 24))
    for i in range(n)
]
# Only map()'s surface-time commit fsyncs the journal, so durability
# rests entirely on the invariant under test.
sched = Scheduler(jobs=2, journal=ShardedJournal(journal_path))
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

        survivor = ShardedJournal(jp)
        missing = [k for k in acked if not survivor.has_key(k)]
        assert not missing, (
            f"{len(missing)} acknowledged records lost by the kill"
        )
        survivor.close()
