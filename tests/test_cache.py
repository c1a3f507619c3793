"""Tests for the content-addressed run-result cache."""

import errno
import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro import cache as run_cache
from repro.cache import MODEL_VERSION, RunCache, cacheable, config_key
from repro.core.config import RunConfig, RunResult
from repro.core.runner import _run_uncached, run
from repro.machines import JAGUARPF, YONA


@pytest.fixture
def cfg():
    return RunConfig(machine=JAGUARPF, implementation="bulk", cores=24,
                     threads_per_task=6, steps=2)


@pytest.fixture
def cache(tmp_path):
    c = run_cache.configure(str(tmp_path / "cache"))
    yield c
    run_cache.configure(None)


def _segment(cache, key):
    return os.path.join(cache.directory, f"{key[:2]}.jsonl")


def _lines(cache, key):
    """The raw lines of ``key``'s segment file."""
    with open(_segment(cache, key), "rb") as fh:
        return fh.read().splitlines()


def _encode(doc):
    """``doc`` as a segment line, in the compact form stores write."""
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"


def _forge(cache, cfg, raw):
    """Replace ``cfg``'s segment with ``raw`` and reopen the active cache.

    A fresh handle is the way another process (or a later session) sees
    the forged bytes: the open handle has the good line indexed.
    """
    with open(_segment(cache, config_key(cfg)), "wb") as fh:
        fh.write(raw)
    return run_cache.configure(cache.directory)


def _same_segment(cfg, n):
    """``n`` configs whose keys share one segment (found by key only)."""
    by_prefix = {}
    for steps in range(1, 5000):
        c = cfg.with_(steps=steps)
        group = by_prefix.setdefault(config_key(c)[:2], [])
        group.append(c)
        if len(group) == n:
            return group
    raise AssertionError("no shared segment")  # pragma: no cover


def _fake_result(c, i):
    """A distinctive result for ``c`` without simulating it."""
    return RunResult(config=c, elapsed_s=i / 3.0 + 1e-9,
                     phases={"compute": i / 7.0, "mpi": 0.1 * i},
                     comm_stats={"messages_sent": i, "bytes_sent": 8 * i})


def _same_result(a, b):
    return (a.elapsed_s == b.elapsed_s and a.phases == b.phases
            and a.comm_stats == b.comm_stats)


class TestKey:
    def test_stable_across_equal_configs(self, cfg):
        assert config_key(cfg) == config_key(cfg.with_())

    def test_differs_across_any_field(self, cfg):
        assert config_key(cfg) != config_key(cfg.with_(steps=3))
        assert config_key(cfg) != config_key(cfg.with_(threads_per_task=12))
        assert config_key(cfg) != config_key(cfg.with_(domain=(64, 64, 64)))

    def test_machine_spec_is_part_of_the_key(self, cfg):
        import dataclasses

        warped_node = dataclasses.replace(
            cfg.machine.node, memcpy_bandwidth_gbs=cfg.machine.node.memcpy_bandwidth_gbs * 2
        )
        warped = dataclasses.replace(cfg.machine, node=warped_node)
        assert config_key(cfg) != config_key(cfg.with_(machine=warped))

    def test_model_version_is_part_of_the_key(self, cfg):
        assert config_key(cfg) != config_key(cfg, model_version="other-version")

    def test_functional_and_trace_runs_are_not_cacheable(self, cfg):
        assert cacheable(cfg)
        assert not cacheable(cfg.with_(trace=True))
        assert not cacheable(
            cfg.with_(functional=True, network="full", domain=(12, 12, 12))
        )


class TestRoundTrip:
    def test_hit_is_bit_identical(self, cfg, cache):
        cold = run(cfg)
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1,
                                 "write_errors": 0}
        warm = run(cfg)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s  # exact, not approx
        assert warm.phases == cold.phases
        assert warm.comm_stats == cold.comm_stats
        assert warm.config == cold.config

    def test_gpu_run_round_trips(self, cache):
        cfg = RunConfig(machine=YONA, implementation="hybrid_overlap",
                        cores=12, threads_per_task=6, box_thickness=2)
        cold = run(cfg)
        warm = run(cfg)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s
        assert warm.gflops == cold.gflops

    def test_uncacheable_runs_bypass(self, cfg, cache):
        traced = cfg.with_(trace=True)
        r = run(traced)
        assert r.tracer is not None
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0,
                                 "write_errors": 0}
        r2 = run(traced)
        assert r2.tracer is not None  # simulated again, artifacts intact

    def test_no_cache_installed_means_no_files(self, cfg, tmp_path):
        assert run_cache.active_cache() is None
        run(cfg)
        assert list(tmp_path.iterdir()) == []


class TestInvalidation:
    def test_model_version_bump_invalidates(self, cfg, cache, monkeypatch):
        run(cfg)
        assert cache.stats()["stores"] == 1
        monkeypatch.setattr(run_cache, "MODEL_VERSION", "pr999-bumped")
        run(cfg)
        # Different version -> different key -> miss + fresh store.
        assert cache.stats()["misses"] == 2
        assert cache.stats()["stores"] == 2

    def test_prune_removes_foreign_versions(self, cfg, cache):
        run(cfg)
        # Forge an entry from an older model version.
        stale = {"key": "de" + "0" * 62, "model_version": "pr0-ancient",
                 "elapsed_s": 1.0, "phases": {}, "comm_stats": {}}
        with open(os.path.join(cache.directory, "de.jsonl"), "ab") as fh:
            fh.write(_encode(stale))
        assert len(cache) == 2
        assert cache.prune() == 1
        assert len(cache) == 1
        assert not cache.has_key(stale["key"])
        assert cache.has_key(config_key(cfg))

    def test_corrupt_entry_is_a_miss(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        cache = _forge(cache, cfg, b'{"key":"' + key.encode() + b'",not json\n')
        r = run(cfg)  # falls back to simulation, re-stores
        assert r.elapsed_s > 0
        assert cache.stats()["stores"] == 1
        last = json.loads(_lines(cache, key)[-1])
        assert last["key"] == key and last["model_version"] == MODEL_VERSION
        run_cache.configure(cache.directory)
        run(cfg)  # the re-stored line supersedes the corrupt one on disk
        assert run_cache.stats()["hits"] == 1

    def test_wrong_version_payload_is_a_miss(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        payload = json.loads(_lines(cache, key)[0])
        payload["model_version"] = "pr0-forged"
        cache = _forge(cache, cfg, _encode(payload))
        run(cfg)
        assert cache.stats()["hits"] == 0
        assert cache.stats()["stores"] == 1
        run_cache.configure(cache.directory)
        run(cfg)  # the re-stored line supersedes the forged one on disk
        assert run_cache.stats()["hits"] == 1


class TestExperimentIntegration:
    def test_warm_regeneration_is_identical_and_hits(self, tmp_path):
        from repro.experiments import run_experiment

        run_cache.configure(str(tmp_path / "c"))
        try:
            cold = run_experiment("sec5e", fast=True)
            stats_cold = run_cache.stats()
            assert stats_cold["hits"] == 0 and stats_cold["stores"] > 0
            run_cache.reset_stats()
            warm = run_experiment("sec5e", fast=True)
            stats_warm = run_cache.stats()
            assert stats_warm["hits"] > 0 and stats_warm["stores"] == 0
            assert cold.rows == warm.rows
            assert cold.series == warm.series
        finally:
            run_cache.configure(None)

    def test_cross_experiment_sharing(self, tmp_path):
        """Configs shared between experiments hit on the second figure."""
        from repro.experiments import run_experiment

        run_cache.configure(str(tmp_path / "c"))
        try:
            run_experiment("fig9", fast=True)
            run_cache.reset_stats()
            run_experiment("fig11", fast=True)  # Lens again: shared configs
            assert run_cache.stats()["hits"] > 0
        finally:
            run_cache.configure(None)

    def test_run_experiments_parallel_uses_cache(self, tmp_path):
        from repro.experiments import run_experiments

        d = str(tmp_path / "c")
        a = run_experiments(["fig9", "sec5e"], fast=True, jobs=2, cache_dir=d)
        warm_stats_before = run_cache.stats()
        assert warm_stats_before["stores"] > 0  # merged from workers
        b = run_experiments(["fig9", "sec5e"], fast=True, jobs=2, cache_dir=d)
        assert run_cache.stats()["hits"] > warm_stats_before["hits"]
        assert [r.rows for r in a] == [r.rows for r in b]
        run_cache.configure(None)


class TestCanonicalErrors:
    def test_type_error_names_the_field_path(self):
        from repro.cache import _canonical

        class Opaque:
            pass

        with pytest.raises(TypeError) as exc:
            _canonical({"outer": [1, {"inner": Opaque()}]})
        msg = str(exc.value)
        assert "Opaque" in msg
        assert "config['outer'][1]['inner']" in msg

    def test_dataclass_field_in_path(self):
        import dataclasses

        from repro.cache import _canonical

        @dataclasses.dataclass
        class Holder:
            payload: object

        with pytest.raises(TypeError) as exc:
            _canonical(Holder(payload=object()))
        assert "config.payload" in str(exc.value)


class TestCorruptEntries:
    """Every kind of bad line is a miss, is re-stored, then hits."""

    def _miss_then_restore(self, cache, cfg, raw):
        cache = _forge(cache, cfg, raw)
        result = run(cfg)  # must re-simulate, not crash
        assert result.elapsed_s > 0
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1,
                                 "write_errors": 0}
        fresh = run_cache.configure(cache.directory)
        assert _same_result(run(cfg), result)
        assert fresh.stats()["hits"] == 1

    def test_truncated_json_is_a_miss(self, cfg, cache):
        run(cfg)  # store
        line = _lines(cache, config_key(cfg))[0]
        self._miss_then_restore(cache, cfg, line[: len(line) // 2] + b"\n")

    def test_garbage_bytes_are_a_miss(self, cfg, cache):
        run(cfg)
        key = config_key(cfg).encode()
        self._miss_then_restore(cache, cfg, b"\x00\xff\x00 not json\n")
        self._miss_then_restore(
            cache, cfg, b'{"key":"' + key + b'",\x00\xff\x00 not json\n'
        )

    def test_wrong_shape_json_is_a_miss(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        for payload in (
            [1, 2, 3],  # not a dict
            {"key": key, "model_version": MODEL_VERSION},  # missing fields
            {"key": key, "model_version": MODEL_VERSION, "elapsed_s": "NaN?",
             "phases": 7, "comm_stats": {}},  # phases not a mapping
        ):
            self._miss_then_restore(cache, cfg, _encode(payload))

    def test_entry_matching_baseline_still_hits(self, cfg, cache):
        cold = run(cfg)
        run_cache.reset_stats()
        warm = run(cfg)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s


class TestShardedLayout:
    def test_entries_land_in_prefix_shards(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        lines = _lines(cache, key)
        assert len(lines) == 1
        assert lines[0].startswith(b'{"key":"' + key.encode() + b'",')
        # Nothing in either one-file-per-entry layout.
        assert os.listdir(cache.directory) == [f"{key[:2]}.jsonl"]

    def test_len_counts_across_shards(self, cfg, cache):
        run(cfg)
        run(cfg.with_(steps=3))
        run(cfg.with_(steps=4))
        assert len(cache) == 3

    def test_len_counts_a_key_appended_twice_once(self, cfg, cache):
        result = run(cfg)
        assert cache.put(cfg, result)  # second line for the same key
        assert len(_lines(cache, config_key(cfg))) == 2
        assert len(cache) == 1
        assert len(RunCache(cache.directory)) == 1

    def test_prune_covers_both_layouts(self, cfg, cache):
        kept = [cfg, cfg.with_(steps=3)]
        for c in kept:
            run(c)
        cache.put(cfg, run(cfg))  # duplicate line: prune keeps one
        stale = {"key": "ab" + "1" * 62, "model_version": "pr0-ancient"}
        with open(os.path.join(cache.directory, "ab.jsonl"), "ab") as fh:
            fh.write(_encode(stale))
        # Leftovers of the one-file-per-entry layouts.
        flat = os.path.join(cache.directory, "deadbeef.json")
        shard_dir = os.path.join(cache.directory, "ab")
        os.makedirs(shard_dir)
        for path in (flat, os.path.join(shard_dir, "ab123.json")):
            with open(path, "w") as fh:
                json.dump({"model_version": MODEL_VERSION}, fh)
        assert len(cache) == 3
        assert cache.prune() == 3  # the stale line + two legacy files
        assert len(cache) == 2
        assert not os.path.exists(flat) and not os.path.exists(shard_dir)
        for c in kept:
            assert len(_lines(cache, config_key(c))) == 1
        fresh = run_cache.configure(cache.directory)
        for c in kept:
            run(c)
        assert fresh.stats()["hits"] == 2

    def test_legacy_entries_are_misses(self, cfg, cache):
        """Entries of the one-file-per-entry layouts are never read."""
        cold = run(cfg)
        key = config_key(cfg)
        payload = json.loads(_lines(cache, key)[0])
        os.unlink(_segment(cache, key))
        os.makedirs(os.path.join(cache.directory, key[:2]))
        for path in (os.path.join(cache.directory, f"{key}.json"),
                     os.path.join(cache.directory, key[:2], f"{key}.json")):
            with open(path, "w") as fh:
                json.dump(payload, fh)
        fresh = run_cache.configure(cache.directory)
        assert not fresh.has_key(key)
        assert _same_result(run(cfg), cold)
        assert fresh.stats() == {"hits": 0, "misses": 1, "stores": 1,
                                 "write_errors": 0}

    def test_probe_keys_counts_existence_without_counters(self, cfg, cache):
        run(cfg)
        key = config_key(cfg)
        run_cache.reset_stats()
        assert cache.probe_keys([key, "0" * 64]) == 1
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0,
                                 "write_errors": 0}


class TestSegments:
    def test_torn_trailing_line_loses_at_most_two_entries(self, cfg, cache):
        """A writer died mid-line; later appends fuse with its torn bytes."""
        a, b, c, d = _same_segment(cfg, 4)
        seg = _segment(cache, config_key(a))
        assert cache.put(a, _fake_result(a, 1))
        line_b = _encode({"key": config_key(b), "elapsed_s": 1.0})
        with open(seg, "ab") as fh:
            fh.write(line_b[:-5])  # key intact, no newline
        reader = RunCache(cache.directory)
        assert reader.has_key(config_key(a))
        assert not reader.has_key(config_key(b))  # torn bytes not consumed
        assert cache.put(c, _fake_result(c, 3))  # fuses with b's bytes
        assert cache.put(d, _fake_result(d, 4))
        for handle in (reader, RunCache(cache.directory)):
            assert _same_result(handle.get(a), _fake_result(a, 1))
            assert handle.get(b) is None  # the torn entry
            assert _same_result(handle.get(d), _fake_result(d, 4))
        # Only c, the line the torn bytes fused with, is lost besides b.
        assert RunCache(cache.directory).get(c) is None


def _put_many(directory, first, count, go):
    go.wait()
    base = RunConfig(machine=JAGUARPF, implementation="bulk", cores=24,
                     threads_per_task=6, steps=2)
    handle = RunCache(directory)
    for i in range(first, first + count):
        c = base.with_(steps=i)
        assert handle.put(c, _fake_result(c, i))
    os._exit(0 if handle.stats()["write_errors"] == 0 else 1)


def _put_one(directory, c, i):
    os._exit(0 if RunCache(directory).put(c, _fake_result(c, i)) else 1)


class TestConcurrentWriters:
    def test_two_processes_append_to_one_directory(self, cfg, tmp_path):
        d = str(tmp_path / "c")
        RunCache(d)
        ctx = multiprocessing.get_context("fork")
        go = ctx.Event()
        procs = [ctx.Process(target=_put_many, args=(d, 1 + 300 * k, 300, go))
                 for k in range(2)]
        for p in procs:
            p.start()
        go.set()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        fresh = RunCache(d)
        assert len(fresh) == 600
        for i in range(1, 601):
            c = cfg.with_(steps=i)
            assert _same_result(fresh.get(c), _fake_result(c, i))
        assert fresh.stats()["hits"] == 600
        for name in os.listdir(d):
            with open(os.path.join(d, name), "rb") as fh:
                data = fh.read()
            assert data.endswith(b"\n")
            for line in data.splitlines():
                assert json.loads(line)["model_version"] == MODEL_VERSION

    def test_threads_share_one_handle(self, cfg, cache):
        """Serve-daemon shape: threads storing and probing one handle."""
        configs = [cfg.with_(steps=i) for i in range(1, 201)]
        errors = []

        def worker(k):
            try:
                for i in range(k, len(configs), 4):
                    c = configs[i]
                    assert cache.put(c, _fake_result(c, i))
                    assert cache.has_key(config_key(c))
                    for j in range(k + 1, len(configs), 8):  # peers' configs
                        got = cache.get(configs[j], record_miss=False)
                        assert got is None or _same_result(
                            got, _fake_result(configs[j], j))
            except BaseException as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for handle in (cache, RunCache(cache.directory)):
            assert len(handle) == len(configs)
            for i, c in enumerate(configs):
                assert _same_result(handle.get(c), _fake_result(c, i))

    def test_open_handle_sees_later_appends_by_a_peer(self, cfg, cache):
        """The scheduler parent's probe after its workers stored."""
        a, b = _same_segment(cfg, 2)
        cache.put(a, _fake_result(a, 1))
        assert cache.get(b) is None  # segment loaded, b absent
        ctx = multiprocessing.get_context("fork")
        peer = ctx.Process(target=_put_one, args=(cache.directory, b, 2))
        peer.start()
        peer.join(60)
        assert peer.exitcode == 0
        assert cache.has_key(config_key(b))
        assert _same_result(cache.get(b), _fake_result(b, 2))


def _break(m, call, err, directory):
    """Make the cache's ``os.open`` or ``os.write`` fail with ``err``."""
    real = getattr(os, call)

    def failing(target, *args, **kwargs):
        if call == "write" or str(target).startswith(directory):
            raise OSError(err, os.strerror(err))
        return real(target, *args, **kwargs)

    m.setattr(os, call, failing)


class TestWriteFailures:
    """A failed memo write never costs the caller its finished run."""

    @pytest.mark.parametrize("call,err", [
        ("write", errno.ENOSPC), ("write", errno.EIO), ("open", errno.EROFS),
    ])
    def test_failed_store_keeps_the_result(self, cfg, cache, monkeypatch,
                                           caplog, call, err):
        reference = _run_uncached(cfg)
        with monkeypatch.context() as m:
            _break(m, call, err, cache.directory)
            first = run(cfg)
            second = run(cfg)  # nothing was stored: a miss again
        assert _same_result(first, reference)
        assert _same_result(second, reference)
        assert cache.stats() == {"hits": 0, "misses": 2, "stores": 0,
                                 "write_errors": 2}
        warnings = [r for r in caplog.records if r.name == "repro.cache"]
        assert len(warnings) == 1  # once per handle
        run(cfg)  # the disk recovered: stored, then a hit
        assert _same_result(run(cfg), reference)
        assert cache.stats()["hits"] == 1

    def test_short_write_loses_only_its_entry(self, cfg, cache, monkeypatch):
        a, b = _same_segment(cfg, 2)
        real = os.write
        calls = []

        def short_once(fd, data):
            calls.append(len(data))
            if len(calls) == 1:
                return real(fd, data[: len(data) // 2])
            return real(fd, data)

        with monkeypatch.context() as m:
            m.setattr(os, "write", short_once)
            assert not cache.put(a, _fake_result(a, 1))
        assert calls[1] == 1  # the torn line was terminated
        assert cache.put(b, _fake_result(b, 2))
        fresh = RunCache(cache.directory)
        assert fresh.get(a) is None
        assert _same_result(fresh.get(b), _fake_result(b, 2))
        assert cache.stats()["write_errors"] == 1

    def test_counter_merges_and_resets(self, cache):
        run_cache.merge_stats({"write_errors": 3, "stores": 1})
        assert run_cache.stats()["write_errors"] == 3
        run_cache.reset_stats()
        assert run_cache.stats() == dict.fromkeys(
            ("hits", "misses", "stores", "write_errors"), 0)


class TestWorkloadKeys:
    """The workload axis vs the cache key.

    At the default workload the key must equal the pre-workload-layer
    key bit for bit (``_KEY_OMIT_DEFAULTS``): the four pinned digests
    below were computed on the pre-refactor tree.
    """

    # (config kwargs beyond machine, expected sha256) — machines by name.
    PINS = [
        (dict(machine="jaguarpf", implementation="bulk", cores=1536,
              threads_per_task=6),
         "0a81d49b9427fde1af567a036720b763ed1911e1731700e275ca587e832cef35"),
        (dict(machine="yona", implementation="hybrid_overlap", cores=12,
              threads_per_task=6, box_thickness=3),
         "762b633fc45d660d804c12a3b1c675e3964b0baa8454c0f679d96783f02ee51a"),
        (dict(machine="jaguarpf", implementation="nonblocking", cores=384,
              threads_per_task=1, seed=11),
         "f600e096d8cb30406e097b6626a7d4dde3ba23a8601a87c2ac3dbdeaf9020252"),
        (dict(machine="a100-sxm", implementation="gpu_streams", cores=64,
              threads_per_task=16),
         "5977cf28ed1a8d7b34235f2cfb1e06bfc7674aa27bcee87cfdc623a300e6f8f1"),
    ]

    @pytest.mark.parametrize("kwargs,expect", PINS)
    def test_pre_workload_keys_unchanged(self, kwargs, expect):
        from repro.machines import get_machine

        kwargs = dict(kwargs, machine=get_machine(kwargs["machine"]))
        assert config_key(RunConfig(**kwargs)) == expect

    def test_explicit_default_workload_hashes_identically(self, cfg):
        assert config_key(cfg) == config_key(
            cfg.with_(workload="advection", workload_params=())
        )

    def test_non_default_workload_enters_the_key(self, cfg):
        spmv = cfg.with_(workload="spmv")
        assert config_key(spmv) != config_key(cfg)
        assert config_key(spmv) != config_key(
            spmv.with_(workload_params=(("rows", 1 << 16),))
        )

    def test_spmv_runs_round_trip(self, cache):
        cfg = RunConfig(machine=JAGUARPF, implementation="nonblocking",
                        cores=24, threads_per_task=6, steps=2,
                        workload="spmv",
                        workload_params=(("rows", 1 << 15),))
        cold = run(cfg)
        warm = run(cfg)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s
        assert warm.phases == cold.phases


class TestKeyMemoization:
    def test_key_memoized_on_the_instance(self, cfg):
        k1 = config_key(cfg)
        memo = cfg.__dict__.get("_key_memo")
        assert memo == (MODEL_VERSION, k1)
        assert config_key(cfg) is memo[1]  # returned without rehashing

    def test_with_builds_a_fresh_memo(self, cfg):
        config_key(cfg)
        derived = cfg.with_(steps=cfg.steps + 1)
        assert "_key_memo" not in derived.__dict__
        assert config_key(derived) != config_key(cfg)

    def test_model_version_override_bypasses_memo(self, cfg):
        k_default = config_key(cfg)
        k_other = config_key(cfg, model_version="other")
        assert k_other != k_default
        # And the default version still resolves correctly afterwards.
        assert config_key(cfg) == k_default

    def test_machine_canonical_memoized_at_catalog_load(self):
        # warm_machine_digests ran at repro.machines import, so every
        # registry spec already carries its canonical form.
        from repro.machines import MACHINES

        for spec in MACHINES.values():
            assert "_canonical_memo" in spec.__dict__

    def test_memo_does_not_leak_into_equality_or_repr(self, cfg):
        config_key(cfg)
        assert cfg == cfg.with_()
        assert "_key_memo" not in repr(cfg)


class TestSeedNoiseKeys:
    def test_noiseless_key_ignores_new_fields(self, cfg):
        # seed=None must hash exactly like the pre-perturbation config so
        # existing cache entries stay addressable.
        canon_key = config_key(cfg)
        assert canon_key == config_key(cfg.with_(seed=None, noise=None))

    def test_seed_and_noise_enter_the_key(self, cfg):
        from repro.perturb import NoiseSpec

        spec = NoiseSpec.preset("medium")
        k0 = config_key(cfg)
        k1 = config_key(cfg.with_(seed=1, noise=spec))
        k2 = config_key(cfg.with_(seed=2, noise=spec))
        k3 = config_key(cfg.with_(seed=1, noise=spec.scaled(0.5)))
        assert len({k0, k1, k2, k3}) == 4

    def test_seeded_runs_cache_and_replay_bit_identically(self, cfg, cache):
        from repro.perturb import NoiseSpec

        noisy = cfg.with_(seed=7, noise=NoiseSpec.preset("medium"))
        cold = run(noisy)
        warm = run(noisy)
        assert cache.stats()["hits"] == 1
        assert warm.elapsed_s == cold.elapsed_s
        assert warm.phases == cold.phases
