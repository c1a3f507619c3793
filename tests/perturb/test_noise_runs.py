"""End-to-end determinism of the perturbation layer.

Two contracts:

* ``seed=None`` is **bit-identical** to the pre-perturbation simulator —
  pinned elapsed times and cache keys below were captured on the commit
  before this layer existed;
* a fixed ``(seed, noise, config)`` triple is bit-identical across repeat
  runs, process restarts and pool-worker counts.
"""

import subprocess
import sys

import pytest

from repro.core.config import RunConfig
from repro.core.runner import run, run_replicated
from repro.machines import A100_SXM, JAGUARPF, YONA
from repro.perturb import NoiseSpec, forced_noise
from repro.perturb.model import NOISE_LANE, Perturbation, build_perturbation

#: (config ctor kwargs are rebuilt per test: RunConfig is frozen/hashable)
PINNED = [
    # (machine, kwargs, pre-PR cache key, pre-PR repr(elapsed_s))
    (
        JAGUARPF,
        dict(implementation="bulk", cores=24, threads_per_task=6, steps=2),
        "0d95154ebc20e98d5346599c354c24708c8d5d524bb4c9f25d29c9632ff28f73",
        "0.24762685706149856",
    ),
    (
        YONA,
        dict(implementation="hybrid_overlap", cores=12, threads_per_task=6,
             box_thickness=3),
        "762b633fc45d660d804c12a3b1c675e3964b0baa8454c0f679d96783f02ee51a",
        "0.10746874136025578",
    ),
    (
        JAGUARPF,
        dict(implementation="nonblocking", cores=48, threads_per_task=1,
             steps=2),
        "522a9974e5ce8b907a3e94d012781bd15c5f77a99d2144e6b4b8863b6789768f",
        "0.12803816725061154",
    ),
]


def _configs():
    return [RunConfig(machine=m, **kw) for m, kw, _k, _e in PINNED]


class TestNoiselessBitIdentity:
    """seed=None must reproduce the pre-perturbation simulator exactly."""

    def test_pinned_elapsed(self):
        for (machine, kw, _key, elapsed) in PINNED:
            cfg = RunConfig(machine=machine, **kw)
            assert repr(run(cfg).elapsed_s) == elapsed

    def test_pinned_cache_keys(self):
        from repro.cache import config_key

        for (machine, kw, key, _elapsed) in PINNED:
            cfg = RunConfig(machine=machine, **kw)
            assert config_key(cfg) == key

    def test_null_noise_with_seed_matches_noiseless(self):
        # A seed with an all-off spec allocates no Perturbation at all.
        for cfg in _configs():
            base = run(cfg)
            nulled = run(cfg.with_(seed=123, noise=NoiseSpec()))
            assert nulled.elapsed_s == base.elapsed_s
            assert nulled.phases == base.phases

    def test_build_perturbation_null_paths(self):
        spec = NoiseSpec.preset("medium")
        assert build_perturbation(None, spec) is None
        assert build_perturbation(1, None) is None
        assert build_perturbation(1, NoiseSpec()) is None
        assert isinstance(build_perturbation(1, spec), Perturbation)


class TestSeededDeterminism:
    def test_same_seed_same_result(self):
        spec = NoiseSpec.preset("medium")
        for cfg in _configs():
            noisy = cfg.with_(seed=42, noise=spec)
            a, b = run(noisy), run(noisy)
            assert a.elapsed_s == b.elapsed_s
            assert a.phases == b.phases
            assert a.comm_stats == b.comm_stats

    def test_different_seeds_differ(self):
        spec = NoiseSpec.preset("medium")
        cfg = _configs()[0]
        assert (
            run(cfg.with_(seed=1, noise=spec)).elapsed_s
            != run(cfg.with_(seed=2, noise=spec)).elapsed_s
        )

    def test_noise_actually_perturbs(self):
        spec = NoiseSpec.preset("medium")
        for cfg in _configs():
            assert run(cfg.with_(seed=42, noise=spec)).elapsed_s != run(cfg).elapsed_s

    def test_bit_identical_across_process_restart(self):
        # The cross-process half of the determinism contract: re-derive one
        # seeded elapsed time in a fresh interpreter.
        code = (
            "from repro.core.config import RunConfig\n"
            "from repro.core.runner import run\n"
            "from repro.machines import JAGUARPF\n"
            "from repro.perturb import NoiseSpec\n"
            "cfg = RunConfig(machine=JAGUARPF, implementation='bulk',\n"
            "                cores=24, threads_per_task=6, steps=2,\n"
            "                seed=42, noise=NoiseSpec.preset('medium'))\n"
            "print(repr(run(cfg).elapsed_s))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        cfg = _configs()[0].with_(seed=42, noise=NoiseSpec.preset("medium"))
        assert out == repr(run(cfg).elapsed_s)

    def test_bit_identical_across_worker_counts(self):
        # Same configs through pools of different sizes: Perturbation is
        # built per run from (seed, noise) alone, so placement can't matter.
        from concurrent.futures import ProcessPoolExecutor

        spec = NoiseSpec.preset("medium")
        cfgs = [c.with_(seed=7, noise=spec) for c in _configs()]
        serial = [run(c).elapsed_s for c in cfgs]
        for workers in (1, 2):
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parallel = list(pool.map(_pool_elapsed, cfgs))
            assert parallel == serial


def _pool_elapsed(cfg):
    """Top-level (picklable) pool worker."""
    return run(cfg).elapsed_s


class TestConfigValidation:
    def test_noise_requires_seed(self):
        with pytest.raises(ValueError, match="requires a seed"):
            RunConfig(
                machine=JAGUARPF, implementation="bulk", cores=24,
                threads_per_task=6, noise=NoiseSpec.preset("low"),
            )

    def test_null_noise_without_seed_is_fine(self):
        RunConfig(
            machine=JAGUARPF, implementation="bulk", cores=24,
            threads_per_task=6, noise=NoiseSpec(),
        )

    def test_noise_must_be_a_spec(self):
        with pytest.raises(ValueError, match="NoiseSpec"):
            RunConfig(
                machine=JAGUARPF, implementation="bulk", cores=24,
                threads_per_task=6, seed=1, noise={"os_jitter": 0.1},
            )

    def test_seed_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            RunConfig(
                machine=JAGUARPF, implementation="bulk", cores=24,
                threads_per_task=6, seed=1.5,
            )


class TestFaultModels:
    def test_straggler_is_rank_sticky(self):
        p = build_perturbation(3, NoiseSpec(straggler_prob=0.5))
        factors = {r: p.straggler_factor(r) for r in range(32)}
        # Re-querying returns the same designation.
        assert factors == {r: p.straggler_factor(r) for r in range(32)}
        assert set(factors.values()) == {1.0, 1.5}  # some of each at p=0.5

    def test_message_delay_stalls_and_retransmits(self):
        spec = NoiseSpec(stall_prob=1.0, stall_us=50.0, drop_prob=1.0,
                         retransmit_timeout_us=100.0, max_retries=3)
        p = build_perturbation(9, spec)
        delay = p.message_delay(0, now=0.0)
        # >= 3 retransmit timeouts with backoff (100+200+400 us) plus a
        # positive exponential stall.
        assert delay > 700e-6

    def test_message_delay_zero_when_off(self):
        p = build_perturbation(9, NoiseSpec(os_jitter=0.1))
        assert p.message_delay(0, now=0.0) == 0.0


class TestTraceUnderNoise:
    def test_noise_lane_and_invariants(self):
        from repro.obs.invariants import check_trace

        spec = NoiseSpec.preset("high").with_(stall_prob=0.5, drop_prob=0.2)
        cfg = RunConfig(
            machine=JAGUARPF, implementation="nonblocking", cores=48,
            threads_per_task=1, steps=2, network="full", trace=True,
            seed=11, noise=spec,
        )
        res = run(cfg)
        lanes = {ev.lane for ev in res.tracer.events}
        assert NOISE_LANE in lanes
        assert check_trace(res.tracer) == []

    def test_traced_seeded_run_matches_untraced(self):
        # Tracing must observe, never alter, the perturbed timeline.
        spec = NoiseSpec.preset("medium")
        a100 = RunConfig(
            machine=A100_SXM, implementation="gpu_streams", cores=256,
            threads_per_task=16, steps=2, domain=(32, 32, 32), network="full",
        )
        # The A100 run has two nodes of 4 GPUs: devices 1001... must draw
        # their own noise streams whether or not a tracer is attached.
        for base in (_configs()[0], a100):
            cfg = base.with_(seed=21, noise=spec)
            assert run(cfg).elapsed_s == run(cfg.with_(trace=True)).elapsed_s


class TestReplication:
    def test_stats_shape_and_determinism(self):
        cfg = _configs()[0].with_(seed=123, noise=NoiseSpec.preset("medium"))
        a = run_replicated(cfg, 6)
        b = run_replicated(cfg, 6)
        assert a.stats == b.stats
        assert a.stats["n"] == 6.0
        assert a.stats["min"] <= a.stats["p50"] <= a.stats["p95"] <= a.stats["max"]
        assert a.stats["std"] > 0.0

    def test_replica_zero_is_the_root_seed(self):
        cfg = _configs()[0].with_(seed=123, noise=NoiseSpec.preset("medium"))
        single = run_replicated(cfg, 1)
        assert single.elapsed_s == run(cfg).elapsed_s
        assert single.stats["std"] == 0.0

    def test_requires_seed_and_positive_replicas(self):
        cfg = _configs()[0]
        with pytest.raises(ValueError):
            run_replicated(cfg, 4)  # no seed
        with pytest.raises(ValueError):
            run_replicated(cfg.with_(seed=1), 0)


class TestForcedNoise:
    def test_override_applies_and_restores(self):
        from repro.perturb import forced_override

        spec = NoiseSpec.preset("medium")
        cfg = _configs()[0]
        base = run(cfg)
        assert forced_override() is None
        with forced_noise(99, spec):
            forced = run(cfg)
            assert forced.config.seed == 99
            assert forced.elapsed_s != base.elapsed_s
        assert forced_override() is None
        assert run(cfg).elapsed_s == base.elapsed_s

    def test_config_with_own_seed_keeps_it(self):
        spec = NoiseSpec.preset("medium")
        own = _configs()[0].with_(seed=5, noise=NoiseSpec.preset("low"))
        with forced_noise(99, spec):
            res = run(own)
        assert res.config.seed == 5
        assert res.config.noise == NoiseSpec.preset("low")
