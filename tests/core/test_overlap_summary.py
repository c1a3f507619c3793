"""Traced runs' overlap summaries: the metrics round trip and the run cache.

A warm regeneration reads every traced run's numbers from the cache's
summary entries (:func:`repro.core.runner.overlap_summary`) and
simulates nothing; a summary served from the cache equals the simulated
one field for field; a torn summary entry, or one without ``overlap``,
is re-simulated.
"""

import json
import os

import pytest

from repro import cache as run_cache
from repro.cache import config_key
from repro.core import runner
from repro.core.config import RunConfig
from repro.core.runner import overlap_summary, run
from repro.des import Environment, SharedBandwidth
from repro.experiments import run_experiments
from repro.machines import A100_SXM, JAGUARPF, MACHINES
from repro.obs import Tracer, capture_traces
from repro.obs.invariants import KNOWN_LANES
from repro.obs.metrics import OverlapMetrics, compute_metrics
from repro.simgpu.device import Gpu


def _machines():
    """Every catalog machine once (the registry also holds aliases)."""
    return sorted({m.name: m for m in MACHINES.values()}.items())


def _traced_cfg(machine, **kw) -> RunConfig:
    """A traced two-node mirror run: GPU machines run ``hybrid_overlap``."""
    impl = "hybrid_overlap" if machine.gpu is not None else "nonblocking"
    threads = max(1, machine.node.cores // max(1, machine.gpus_per_node))
    fields = dict(
        machine=machine,
        implementation=impl,
        cores=2 * machine.node.cores,
        threads_per_task=threads if machine.gpu is not None else 1,
        steps=2,
        domain=(32, 32, 32),
        trace=True,
    )
    fields.update(kw)
    return RunConfig(**fields)


def _same_summary(a, b) -> bool:
    """Field-for-field equality of two summaries, floats compared exactly."""
    return (
        a.config == b.config
        and a.elapsed_s == b.elapsed_s
        and a.phases == b.phases
        and a.comm_stats == b.comm_stats
        and a.overlap.occupancy == b.overlap.occupancy
        and a.overlap.overlap_s == b.overlap.overlap_s
        and a.overlap.overlap_fraction == b.overlap.overlap_fraction
        and a.overlap.critical_path == b.overlap.critical_path
    )


def _exact(metrics: OverlapMetrics):
    """Every value of ``metrics`` as (type, bits), keys in order."""
    def render(d):
        return [(k, type(v).__name__, float(v).hex()) for k, v in d.items()]

    return (
        render(metrics.occupancy),
        render(metrics.overlap_s),
        float(metrics.overlap_fraction).hex(),
        render(metrics.critical_path),
    )


def _nvlink_tracer() -> Tracer:
    """A peer copy over NVLink under a kernel on the source device."""
    env = Environment()
    tracer = Tracer()
    a = Gpu(env, A100_SXM.gpu, name="gpu0")
    b = Gpu(env, A100_SXM.gpu, name="gpu1")
    link = SharedBandwidth(env, A100_SXM.gpu.nvlink_bandwidth_bps, name="nvlink0")
    a.nvlink = b.nvlink = link
    a.tracer = link.tracer = tracer
    a.launch_kernel(a.stream(), 1e-3, name="sweep")  # a stream of its own
    a.peer_copy(a.stream(), b, 64 * 1024 * 1024)
    env.run()
    return tracer


@pytest.fixture
def cache(tmp_path):
    c = run_cache.configure(str(tmp_path / "cache"))
    yield c
    run_cache.configure(None)


@pytest.fixture
def simulated(monkeypatch):
    """The configs simulated from here on, in order."""
    seen = []
    real = runner._run_uncached
    monkeypatch.setattr(
        runner, "_run_uncached", lambda cfg: seen.append(cfg) or real(cfg)
    )
    return seen


class TestFromDict:
    def test_no_known_lane_contains_the_pair_separator(self):
        assert not [lane for lane in KNOWN_LANES if "+" in lane]

    @pytest.mark.parametrize("name,machine", _machines())
    def test_round_trip_over_a_traced_run(self, name, machine):
        metrics = run(_traced_cfg(machine)).overlap
        doc = json.loads(json.dumps(metrics.to_dict()))
        back = OverlapMetrics.from_dict(doc)
        assert back == metrics
        assert _exact(back) == _exact(metrics)
        assert all(type(k) is tuple and len(k) == 2 for k in back.overlap_s)

    def test_round_trips_cover_the_progress_and_nvlink_lanes(self):
        progress = run(_traced_cfg(A100_SXM)).overlap
        nvlink = compute_metrics(_nvlink_tracer())
        assert "progress" in progress.occupancy
        assert "nvlink" in nvlink.occupancy
        for metrics in (progress, nvlink):
            back = OverlapMetrics.from_dict(json.loads(json.dumps(metrics.to_dict())))
            assert _exact(back) == _exact(metrics)

    def test_a_key_that_is_not_a_pair_raises(self):
        doc = OverlapMetrics(overlap_s={("host", "mpi"): 1.0}).to_dict()
        doc["overlap_s"] = {"host": 1.0}
        with pytest.raises(ValueError):
            OverlapMetrics.from_dict(doc)


class TestSummaryEntries:
    def test_served_summary_equals_the_simulated_one(self, cache):
        cfg = _traced_cfg(JAGUARPF)
        simulated = overlap_summary(cfg)
        assert simulated.tracer is None and simulated.overlap is not None
        assert cache.stats()["stores"] == 1
        fresh = run_cache.configure(cache.directory)  # as a later process
        served = overlap_summary(cfg)
        assert fresh.stats() == {"hits": 1, "misses": 0, "stores": 0,
                                 "write_errors": 0}
        assert served.tracer is None
        assert _same_summary(served, simulated)
        assert _exact(served.overlap) == _exact(simulated.overlap)

    def test_summary_equals_a_traced_run(self, cache):
        cfg = _traced_cfg(A100_SXM)
        overlap_summary(cfg)
        run_cache.configure(cache.directory)
        served = overlap_summary(cfg)
        simulated = run(cfg)
        assert simulated.tracer is not None
        assert _same_summary(served, simulated)

    def test_untraced_config_is_summarized_traced(self, cache):
        cfg = _traced_cfg(JAGUARPF, trace=False)
        summary = overlap_summary(cfg)
        assert summary.config.trace and summary.overlap is not None
        # The untraced key holds nothing: summaries live under traced keys.
        assert not cache.has_key(config_key(cfg))
        assert cache.has_key(config_key(cfg.with_(trace=True)))

    def test_untraced_line_keeps_its_schema(self, cache):
        cfg = _traced_cfg(JAGUARPF, trace=False)
        run(cfg)
        overlap_summary(cfg)
        (plain,) = _lines(cache, config_key(cfg))
        (summary,) = _lines(cache, config_key(cfg.with_(trace=True)))
        assert list(json.loads(plain)) == [
            "key", "model_version", "machine", "implementation", "cores",
            "elapsed_s", "phases", "comm_stats",
        ]
        assert list(json.loads(summary)) == list(json.loads(plain)) + ["overlap"]

    def test_run_still_simulates_a_traced_config(self, cache, simulated):
        cfg = _traced_cfg(JAGUARPF)
        overlap_summary(cfg)
        result = run(cfg)
        assert result.tracer is not None
        assert len(simulated) == 2
        # The untraced path does not read summary entries either.
        assert cache.get(cfg) is None

    @pytest.mark.parametrize("damage", ["torn", "no-overlap", "bad-overlap"])
    def test_damaged_entry_is_resimulated(self, cache, simulated, damage):
        cfg = _traced_cfg(JAGUARPF)
        good = overlap_summary(cfg)
        key = config_key(cfg)
        (line,) = _lines(cache, key)
        doc = json.loads(line)
        if damage == "torn":
            raw = line[: len(line) // 2] + b"\n"
        else:
            if damage == "no-overlap":
                del doc["overlap"]
            else:
                doc["overlap"]["overlap_s"] = {"host": 0.0}
            raw = json.dumps(doc, separators=(",", ":")).encode() + b"\n"
        with open(_segment(cache, key), "wb") as fh:
            fh.write(raw)
        fresh = run_cache.configure(cache.directory)
        again = overlap_summary(cfg)
        assert len(simulated) == 2
        assert fresh.stats() == {"hits": 0, "misses": 1, "stores": 1,
                                 "write_errors": 0}
        assert _same_summary(again, good)

    def test_capture_simulates_every_summary(self, cache):
        cfg = _traced_cfg(JAGUARPF)
        overlap_summary(cfg)
        captured = []
        with capture_traces(captured.append):
            summary = overlap_summary(cfg)
        assert len(captured) == 1 and captured[0].tracer is not None
        assert summary.tracer is None
        assert cache.stats()["hits"] == 0

    def test_no_cache_means_no_files(self, tmp_path):
        assert run_cache.active_cache() is None
        summary = overlap_summary(_traced_cfg(JAGUARPF))
        assert summary.overlap is not None and summary.tracer is None
        assert list(tmp_path.iterdir()) == []


class TestWarmRegeneration:
    IDS = ["spmv_overlap", "convergence"]

    def test_warm_pass_simulates_and_stores_nothing(self, tmp_path, simulated):
        directory = str(tmp_path / "cache")
        try:
            cold = run_experiments(self.IDS, fast=True, cache_dir=directory)
            traced = [c for c in simulated if c.trace]
            assert len(traced) == 10
            assert len({config_key(c) for c in traced}) == 10
            simulated.clear()
            run_cache.configure(None)  # a fresh handle, as a new process
            warm = run_experiments(self.IDS, fast=True, cache_dir=directory)
            assert simulated == []
            stats = run_cache.stats()
            assert stats["stores"] == 0 and stats["misses"] == 0
            assert stats["hits"] > 0
        finally:
            run_cache.configure(None)
        for a, b in zip(cold, warm):
            assert a.rows == b.rows
            assert a.series == b.series


def _segment(cache, key):
    return os.path.join(cache.directory, f"{key[:2]}.jsonl")


def _lines(cache, key):
    """The lines of ``key``'s segment stored under ``key``."""
    with open(_segment(cache, key), "rb") as fh:
        return [ln for ln in fh.read().splitlines()
                if ln.startswith(b'{"key":"' + key.encode())]
