"""Same-time order independence of the full backend.

The engine fires same-time events in insertion order (FIFO), so the
order in which the runner starts the rank processes decides which of
several simultaneous events goes first. A result must not depend on it:
starting the ranks in reverse order has to leave the elapsed time, the
summed message statistics and every rank's phase totals bit-identical.

The seam is in this file: ``runner._build_full`` is wrapped so that it
hands ``_run_uncached`` its rank contexts reversed (the network, NICs and
GPUs are built in the same order either way).

Known exception: ranks that share one GPU are served in the order they
reached the device, so when several of them submit at the same instant
the elapsed time depends on which started first (their phase totals do
not). The random property therefore draws GPU implementations with one
task per GPU only; ``test_ranks_sharing_a_gpu_depend_on_start_order``
pins the exception as a strict expected failure, so it shows the day the
device arbitration stops depending on start order.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import runner
from repro.core.config import RunConfig
from repro.core.registry import CPU_KEYS, GPU_KEYS
from repro.machines import A100_SXM, HOPPER, JAGUARPF, LENS, MACHINES, YONA
from repro.workloads import get_workload

MAX_RANKS = 64


def run_in_order(cfg: RunConfig, reverse: bool):
    """(elapsed_s, comm_stats, {rank: phases}) of one full-backend run."""
    built = []
    real = runner._build_full

    def build(*args):
        contexts, components = real(*args)
        built.extend(contexts)
        return (contexts[::-1] if reverse else contexts), components

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_build_full", build)
        result = runner._run_uncached(cfg)
    assert len(built) == cfg.ntasks
    phases = {ctx.sub.rank: dict(ctx.phases) for ctx in built}
    return result.elapsed_s, dict(result.comm_stats), phases


def _named(machine, impl, cores, threads):
    return RunConfig(machine=machine, implementation=impl, cores=cores,
                     threads_per_task=threads, steps=2, network="full")


#: The eight full-backend configurations first checked by hand.
NAMED = [
    _named(JAGUARPF, "bulk", 384, 1),
    _named(JAGUARPF, "nonblocking", 384, 1),
    _named(JAGUARPF, "bulk_direct", 384, 1),
    _named(HOPPER, "bulk", 384, 6),
    _named(LENS, "hybrid_overlap", 64, 4),
    _named(LENS, "gpu_bulk", 64, 4),
    _named(YONA, "gpu_streams", 192, 6),
    _named(A100_SXM, "hybrid_overlap", 256, 16),
]

_CATALOG = sorted({m.name: m for m in MACHINES.values()}.items())


@st.composite
def small_configs(draw):
    """A valid full-backend run of at most ``MAX_RANKS`` ranks."""
    _, machine = draw(st.sampled_from(_CATALOG))
    keys = CPU_KEYS + (GPU_KEYS if machine.gpu is not None else ())
    impl = draw(st.sampled_from([k for k in keys if k != "single"]))
    node_cores = machine.node.cores
    # GPU codes: one task per GPU (see the module docstring).
    per_node_max = (max(1, machine.gpus_per_node) if impl in GPU_KEYS
                    else MAX_RANKS)
    threads = draw(st.sampled_from([
        t for t in range(1, node_cores + 1)
        if node_cores % t == 0 and node_cores // t <= per_node_max
    ]))
    per_node = node_cores // threads
    nodes = draw(st.integers(1, max(1, MAX_RANKS // per_node)))
    domain = tuple(draw(st.integers(16, 48)) for _ in range(3))
    try:
        cfg = RunConfig(machine=machine, implementation=impl,
                        cores=nodes * node_cores, threads_per_task=threads,
                        steps=draw(st.integers(1, 2)), domain=domain,
                        network="full")
        workload = get_workload(cfg.workload)
        workload.validate(cfg)
        workload.implementation(impl).validate(cfg)
        workload.decompose(cfg)
    except ValueError:
        assume(False)
    return cfg


class TestReverseRankStart:
    @given(small_configs())
    @settings(max_examples=25, deadline=None)
    @example(NAMED[0])
    @example(NAMED[1])
    @example(NAMED[2])
    @example(NAMED[3])
    @example(NAMED[4])
    @example(NAMED[5])
    @example(NAMED[6])
    @example(NAMED[7])
    def test_reverse_start_order_is_bit_identical(self, cfg):
        forward = run_in_order(cfg, reverse=False)
        backward = run_in_order(cfg, reverse=True)
        assert forward[0] == backward[0], "elapsed_s"
        assert forward[1] == backward[1], "comm_stats"
        assert forward[2] == backward[2], "per-rank phases"

    @pytest.mark.xfail(strict=True, reason="co-tenants of one GPU are served "
                       "in the order they reach it (an open defect)")
    def test_ranks_sharing_a_gpu_depend_on_start_order(self):
        # Twelve ranks on Yona's one GPU per node: about 0.6% apart.
        cfg = RunConfig(machine=YONA, implementation="gpu_bulk", cores=12,
                        threads_per_task=1, steps=1, domain=(16, 16, 16),
                        network="full")
        forward = run_in_order(cfg, reverse=False)
        backward = run_in_order(cfg, reverse=True)
        assert forward[1:] == backward[1:]  # statistics and phases agree
        assert forward[0] == backward[0], "elapsed_s"

    def test_the_seam_reverses_the_start_order(self, monkeypatch):
        started = []
        real = runner._rank_main

        def rank_main(impl, ctx, rec):
            started.append(ctx.sub.rank)
            return real(impl, ctx, rec)

        monkeypatch.setattr(runner, "_rank_main", rank_main)
        run_in_order(NAMED[4], reverse=True)
        assert started == sorted(started, reverse=True) and len(started) == 16
