"""Shard lease protocol: atomic acquire, expiry steal, renew, release."""

import errno
import json
import os
import time

import pytest

from repro.sched import ShardLeases


class TestAcquire:
    def test_fresh_lease_goes_to_one_owner(self, tmp_path):
        a = ShardLeases(str(tmp_path), owner="a", ttl=30.0)
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        assert a.acquire("shard-000") is True
        assert b.acquire("shard-000") is False
        assert a.held() == ["shard-000"]
        assert b.held() == []
        assert a.holder("shard-000") == "a"

    def test_independent_shards_do_not_conflict(self, tmp_path):
        a = ShardLeases(str(tmp_path), owner="a", ttl=30.0)
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        assert a.acquire("shard-000")
        assert b.acquire("shard-001")
        assert a.holder("shard-001") == "b"

    def test_malformed_lease_is_stealable(self, tmp_path):
        (tmp_path / "shard-000.lease").write_text("not json {")
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        assert b.acquire("shard-000") is True
        assert b.holder("shard-000") == "b"


class TestExpiry:
    def test_expired_lease_is_stolen(self, tmp_path):
        a = ShardLeases(str(tmp_path), owner="a", ttl=0.2)
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        assert a.acquire("shard-000")
        assert b.acquire("shard-000") is False  # still live
        time.sleep(0.25)
        assert b.acquire("shard-000") is True  # a "died": stop renewing
        assert b.holder("shard-000") == "b"

    def test_loser_renew_does_not_clobber_thief(self, tmp_path):
        a = ShardLeases(str(tmp_path), owner="a", ttl=0.2)
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        assert a.acquire("shard-000")
        time.sleep(0.25)
        assert b.acquire("shard-000")
        assert a.renew("shard-000") is False
        assert a.held() == []
        assert b.holder("shard-000") == "b"

    def test_renew_keeps_the_lease_alive(self, tmp_path):
        a = ShardLeases(str(tmp_path), owner="a", ttl=0.4)
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        assert a.acquire("shard-000")
        for _ in range(4):
            time.sleep(0.15)
            assert a.renew("shard-000") is True
            assert b.acquire("shard-000") is False
        # 0.6s elapsed > ttl: without the renews b would have stolen it.

    def test_expires_field_moves_forward_on_renew(self, tmp_path):
        a = ShardLeases(str(tmp_path), owner="a", ttl=5.0)
        assert a.acquire("shard-000")
        first = json.loads((tmp_path / "shard-000.lease").read_text())
        time.sleep(0.05)
        assert a.renew("shard-000")
        second = json.loads((tmp_path / "shard-000.lease").read_text())
        assert second["expires"] > first["expires"]


class TestRelease:
    def test_release_frees_the_shard(self, tmp_path):
        a = ShardLeases(str(tmp_path), owner="a", ttl=30.0)
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        assert a.acquire("shard-000")
        a.release("shard-000")
        assert a.held() == []
        assert b.acquire("shard-000") is True

    def test_release_after_steal_keeps_the_thiefs_lease(self, tmp_path):
        a = ShardLeases(str(tmp_path), owner="a", ttl=0.2)
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        assert a.acquire("shard-000")
        time.sleep(0.25)
        assert b.acquire("shard-000")
        a.release("shard-000")  # must not unlink b's lease
        assert b.holder("shard-000") == "b"
        assert b.renew("shard-000") is True

    def test_release_not_held_is_a_noop(self, tmp_path):
        a = ShardLeases(str(tmp_path), owner="a", ttl=30.0)
        a.release("shard-000")  # never held: no error, no file
        assert a.holder("shard-000") is None


def _raise(err):
    def fail(*_args, **_kw):
        raise OSError(err, os.strerror(err))

    return fail


class TestWriteFaults:
    """A steal or renew whose temp-file write fails leaves no ``.tmp``."""

    @pytest.mark.parametrize("err", [errno.ENOSPC, errno.EIO], ids=["ENOSPC", "EIO"])
    def test_failed_steal_removes_its_temp_file(self, tmp_path, monkeypatch, err):
        (tmp_path / "s0.lease").write_text("not json {")  # stealable now
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        monkeypatch.setattr(os, "fsync", _raise(err))
        assert b.acquire("s0") is False
        assert b.held() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s0.lease"]

    def test_failed_replace_removes_its_temp_file(self, tmp_path, monkeypatch):
        (tmp_path / "s0.lease").write_text("not json {")
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        monkeypatch.setattr(os, "replace", _raise(errno.EIO))
        assert b.acquire("s0") is False
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s0.lease"]

    @pytest.mark.parametrize("err", [errno.ENOSPC, errno.EIO], ids=["ENOSPC", "EIO"])
    def test_failed_renew_removes_its_temp_file(self, tmp_path, monkeypatch, err):
        a = ShardLeases(str(tmp_path), owner="a", ttl=30.0)
        assert a.acquire("s0")
        before = (tmp_path / "s0.lease").read_text()
        monkeypatch.setattr(os, "fsync", _raise(err))
        assert a.renew("s0") is False
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s0.lease"]
        assert (tmp_path / "s0.lease").read_text() == before  # old lease intact
        monkeypatch.undo()
        assert a.renew("s0") is True  # the directory recovered: so does renew

    def test_failed_create_leaves_no_lease(self, tmp_path, monkeypatch):
        # The O_EXCL create succeeds and the write lands, but its fsync
        # fails: the complete lease on disk must not outlive the False.
        a = ShardLeases(str(tmp_path), owner="a", ttl=30.0)
        monkeypatch.setattr(os, "fsync", _raise(errno.EIO))
        assert a.acquire("s0") is False
        assert a.held() == []
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        b = ShardLeases(str(tmp_path), owner="b", ttl=30.0)
        assert b.acquire("s0") is True  # a peer is not locked out for a ttl
        b.release("s0")
        assert a.acquire("s0") is True  # nor is the creator itself
        assert a.held() == ["s0"]
