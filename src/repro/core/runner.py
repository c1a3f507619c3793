"""Execute one :class:`~repro.core.config.RunConfig` on the simulator.

The runner builds the DES environment, the decomposition, the network
backend (full or mirror), optional GPUs, and one rank process per task
(one representative process in mirror mode). The measurement follows the
paper's protocol: GPU sync and an MPI barrier immediately before reading
the start and end times; setup (initial H2D, pipeline priming) and drain
(final D2H for verification) are outside the measured window.

Every run executes on the flat event core's float64 clock
(docs/MODEL.md §12): the machine models charge delays that are arbitrary
float quotients, and every recorded experiment value was produced on that
clock. Bit-identity across engine refactors is enforced against the
committed dump oracle
(``tests/experiments/golden_dump_fast.json``).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.base import Implementation
from repro.core.config import RunConfig, RunResult
from repro.core.context import RankContext
from repro.des import Environment, SharedBandwidth
from repro.obs.tracer import GPU_GROUP_BASE, LINK_GROUP_BASE, Tracer
from repro.perturb.model import Perturbation, build_perturbation
from repro.simgpu.device import Gpu
from repro.simmpi.mirror import MirrorComm
from repro.simmpi.world import World
from repro.workloads import DEFAULT_WORKLOAD, Workload, get_workload

__all__ = ["run", "overlap_summary", "run_replicated"]


def _rank_main(impl: Implementation, ctx: RankContext, record: Dict[str, float]):
    yield from impl.setup(ctx)
    if ctx.gpu is not None:
        yield ctx.gpu.synchronize()
    if ctx.comm is not None:
        yield from ctx.comm.barrier()
    record["t0"] = ctx.env.now
    for i in range(ctx.cfg.steps):
        yield from impl.step(ctx, i)
    yield from impl.finish_timed(ctx)
    if ctx.comm is not None:
        yield from ctx.comm.barrier()
    record["t1"] = ctx.env.now
    yield from impl.drain(ctx)


def _build_full(env: Environment, cfg: RunConfig, impl: Implementation,
                workload: Workload, decomp) -> Tuple[List[RankContext], list]:
    machine = cfg.machine
    world: Optional[World] = None
    if impl.uses_mpi:
        world = World(
            env, cfg.ntasks, machine.interconnect, machine.node, cfg.tasks_per_node
        )
    gpus: Dict[int, Gpu] = {}
    contexts = []
    tasks_per_gpu = _tasks_per_gpu(cfg)
    for rank in range(cfg.ntasks):
        sub = decomp.subdomain(rank)
        comm = world.comm(rank) if world is not None else None
        gpu = None
        if impl.uses_gpu:
            gpu_id = rank // tasks_per_gpu
            if gpu_id not in gpus:
                gpus[gpu_id] = Gpu(
                    env, machine.gpu, name=f"gpu{gpu_id}",
                    trace_group=GPU_GROUP_BASE + gpu_id,
                )
            gpu = gpus[gpu_id]
        contexts.append(
            RankContext(
                env, cfg, sub, decomp, comm, workload.make_data(cfg, sub), gpu, 1
            )
        )
    fabrics: Dict[int, SharedBandwidth] = {}
    if gpus and machine.gpu is not None and machine.gpu.has_nvlink:
        # One NVLink fabric per node, shared by the node's resident
        # devices: peer copies between them DMA over it instead of
        # staging through the host (see Gpu.peer_copy).
        gpus_per_node = max(1, machine.gpus_per_node)
        for gpu_id, gpu in gpus.items():
            node = gpu_id // gpus_per_node
            if node not in fabrics:
                fabrics[node] = SharedBandwidth(
                    env, machine.gpu.nvlink_bandwidth_bps, name=f"nvlink{node}"
                )
            gpu.nvlink = fabrics[node]
    components = list(contexts)
    if world is not None:
        components += [world, *world.nics]
    for gpu in gpus.values():
        components += [gpu, gpu.pcie]
    components += fabrics.values()
    return contexts, components


def _tasks_per_gpu(cfg: RunConfig) -> int:
    """Tasks sharing one GPU (the machine may host several per node)."""
    gpus_per_node = max(1, cfg.machine.gpus_per_node)
    return max(1, math.ceil(cfg.tasks_per_node / gpus_per_node))


def _build_mirror(env: Environment, cfg: RunConfig, impl: Implementation,
                  workload: Workload, decomp) -> Tuple[List[RankContext], list]:
    machine = cfg.machine
    comm = None
    rep_rank = 0
    if impl.uses_mpi:
        profile = workload.mirror_profile(cfg, decomp)
        comm = MirrorComm(env, profile)
        rep_rank = profile.representative_rank
    sub = decomp.subdomain(rep_rank)
    gpu = None
    gpu_share = 1
    if impl.uses_gpu:
        gpu = Gpu(env, machine.gpu, name="gpu")
        # Tasks sharing a GPU serialize on it; the representative's kernels
        # and transfers are stretched by that contention.
        gpu_share = _tasks_per_gpu(cfg)
    ctx = RankContext(
        env, cfg, sub, decomp, comm, workload.make_data(cfg, sub), gpu, gpu_share
    )
    components = [ctx]
    if comm is not None:
        components.append(comm)
    if gpu is not None:
        components += [gpu, gpu.pcie]
    return [ctx], components


def _attach(
    components: list, tracer: Optional[Tracer], perturb: Optional[Perturbation],
    cfg: RunConfig, workload: Workload,
) -> None:
    """Wire the run's tracer and perturbation into every component.

    ``components`` is the build's one list, in creation order: rank
    contexts, the network (World or MirrorComm), NICs, each GPU followed
    by its PCIe link, NVLink fabrics. Every component gets ``tracer``;
    all but the links also get ``perturb``. Ranks draw noise from their
    rank's streams, the network from the sender rank's, and each GPU from
    the group it was given at construction, so a device's noise does not
    depend on whether the run is traced.

    Group ids follow the :mod:`repro.obs.tracer` conventions: MPI ranks
    keep their rank number, GPU devices keep the group they were built
    with, and links get ids from ``LINK_GROUP_BASE`` up in list order. Device
    capacities land in ``tracer.meta["gpus"]`` for the invariant checker.
    """
    if perturb is not None:
        # Fault events (stalls, retransmits, stragglers) land on the
        # dedicated "noise" trace lane when the run is traced.
        perturb.tracer = tracer
    if tracer is not None:
        tracer.meta.update(
            {
                "implementation": cfg.implementation,
                "machine": cfg.machine.name,
                "network": cfg.network,
                "ntasks": cfg.ntasks,
                "threads_per_task": cfg.threads_per_task,
                "domain": list(cfg.domain),
                "steps": cfg.steps,
                "progress": cfg.machine.interconnect.progress.value,
            }
        )
        if cfg.workload != DEFAULT_WORKLOAD:
            # Only stamped when non-default, so default-workload traces stay
            # byte-identical to the pre-workload golden traces.
            tracer.meta["workload"] = cfg.workload
            if cfg.workload_params:
                tracer.meta["workload_params"] = dict(cfg.workload_params)
    next_link = LINK_GROUP_BASE
    gpus_meta: Dict[int, Dict[str, int]] = {}
    for comp in components:
        comp.tracer = tracer
        if isinstance(comp, SharedBandwidth):
            comp.trace_group = next_link
            next_link += 1
        else:
            comp.perturb = perturb
        if tracer is None:
            continue
        if isinstance(comp, RankContext):
            tracer.set_group_name(comp.sub.rank, workload.rank_group_name(comp.sub))
        elif isinstance(comp, (SharedBandwidth, Gpu)):
            tracer.set_group_name(comp.trace_group, comp.name)
        if isinstance(comp, Gpu):
            gpus_meta[comp.trace_group] = {
                "kernel_slots": 16 if comp.spec.concurrent_kernels else 1,
                "copy_engines": comp.spec.copy_engines,
                "nvlink": int(comp.nvlink is not None),
            }
    if gpus_meta:
        tracer.meta["gpus"] = gpus_meta


def run(cfg: RunConfig) -> RunResult:
    """Run one configuration; returns timing (and fields when functional).

    When a run cache is installed (:func:`repro.cache.configure`), cacheable
    configs — no functional fields, no tracer — are looked up by content
    hash first and stored after simulating; the replayed result is
    bit-identical to the simulated one (the simulator is deterministic and
    the cache stores exact floats).
    """
    from repro.cache import active_cache
    from repro.obs.capture import active_capture

    cfg = _forced(cfg)
    capture = active_capture()
    if capture is not None:
        # Trace capture observes every run: force tracing (bypassing the
        # cache, which never stores traced runs) and feed the callback.
        result = _run_uncached(cfg if cfg.trace else cfg.with_(trace=True))
        capture(result)
        return result

    cache = active_cache()
    if cache is not None:
        cached = cache.get(cfg)
        if cached is not None:
            return cached
    result = _run_uncached(cfg)
    if cache is not None:
        cache.put(cfg, result)
    return result


def overlap_summary(cfg: RunConfig) -> RunResult:
    """A traced run's scalar result and overlap metrics, without its timeline.

    ``cfg`` is run traced. With a run cache installed, the summary is
    read from the traced config's summary entry
    (:meth:`repro.cache.RunCache.get_summary`); on a miss the config is
    simulated through :func:`run` and its summary stored. The result
    carries ``overlap`` but never a ``tracer``, hit or miss. Trace
    capture bypasses the cache: it observes every run it is given.
    """
    from repro.cache import active_cache
    from repro.obs.capture import active_capture

    cfg = _forced(cfg if cfg.trace else cfg.with_(trace=True))
    cache = active_cache() if active_capture() is None else None
    if cache is not None:
        cached = cache.get_summary(cfg)
        if cached is not None:
            return cached
    result = replace(run(cfg), tracer=None)
    if cache is not None:
        cache.put_summary(cfg, result)
    return result


def _forced(cfg: RunConfig) -> RunConfig:
    """``cfg`` under the process-global perturbation sweep, if one is set.

    (:func:`repro.perturb.forced_noise`.) Applied before any cache lookup
    so perturbed runs never collide with noiseless cache entries. Configs
    carrying their own seed or noise keep them.
    """
    from repro.perturb import forced_override

    forced = forced_override()
    if forced is not None and cfg.seed is None and cfg.noise is None:
        return cfg.with_(seed=forced[0], noise=forced[1])
    return cfg


def _run_uncached(cfg: RunConfig) -> RunResult:
    """Simulate one configuration (no cache consultation)."""
    workload = get_workload(cfg.workload)
    impl = workload.implementation(cfg.implementation)
    workload.validate(cfg)
    impl.validate(cfg)
    env = Environment()
    decomp = workload.decompose(cfg)

    build = _build_full if cfg.network == "full" else _build_mirror
    contexts, components = build(env, cfg, impl, workload, decomp)
    tracer = Tracer() if cfg.trace else None
    perturb = build_perturbation(cfg.seed, cfg.noise)
    if tracer is not None or perturb is not None:
        _attach(components, tracer, perturb, cfg, workload)

    records: List[Dict[str, float]] = [dict() for _ in contexts]
    for ctx, rec in zip(contexts, records):
        env.process(_rank_main(impl, ctx, rec), name=f"rank{ctx.sub.rank}")
    env.run()

    for rec in records:
        if "t1" not in rec:
            raise RuntimeError(
                f"{cfg.implementation}: a rank never finished (deadlock in the program)"
            )
    t0 = min(r["t0"] for r in records)
    t1 = max(r["t1"] for r in records)
    elapsed = t1 - t0
    if elapsed <= 0:
        raise RuntimeError(f"{cfg.implementation}: non-positive elapsed time")

    # Aggregate MPI counters over every simulated rank. In mirror mode there
    # is one representative context, so this reduces to the representative's
    # counters; in full-network mode it is the global traffic, for which
    # sent == received holds by construction (every isend pairs an irecv).
    comm_stats: Dict[str, int] = {}
    comms = [ctx.comm for ctx in contexts if ctx.comm is not None]
    if comms:
        comm_stats = {
            "messages_sent": sum(c.messages_sent for c in comms),
            "bytes_sent": sum(c.bytes_sent for c in comms),
            "messages_received": sum(c.messages_received for c in comms),
            "bytes_received": sum(c.bytes_received for c in comms),
        }
    overlap = None
    if tracer is not None:
        from repro.obs.metrics import compute_metrics

        tracer.meta["t0"] = t0
        tracer.meta["t1"] = t1
        tracer.meta["elapsed_s"] = elapsed
        overlap = compute_metrics(tracer)
    result = RunResult(
        config=cfg, elapsed_s=elapsed, phases=dict(contexts[0].phases),
        tracer=tracer, overlap=overlap, comm_stats=comm_stats,
    )
    if cfg.functional:
        workload.finalize_functional(cfg, contexts, result)
    return result


def run_replicated(cfg: RunConfig, replicas: int) -> RunResult:
    """Monte-Carlo replication: ``replicas`` seeded runs of one config.

    Each replica runs under an independent seed derived from
    ``cfg.seed`` (:func:`repro.perturb.rng.derive_seed`; replica 0 keeps
    the root seed, so a single-replica call is exactly ``run(cfg)``).
    Returns replica 0's result with :attr:`RunResult.stats` set to the
    ensemble summary (:func:`repro.perturb.stats.replication_stats`).
    Replicas are individually cacheable, so repeating a study is cheap.

    When a process-wide scheduler is installed (:mod:`repro.sched`), the
    whole ensemble goes through it as one batch — deduplicated against
    other work in the session and parallel with ``jobs > 1`` — with each
    replica's result bit-identical to a direct ``run`` of its seed.
    """
    from repro.perturb.rng import derive_seed
    from repro.perturb.stats import replication_stats
    from repro.sched import active_scheduler

    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas!r}")
    if cfg.seed is None:
        raise ValueError("run_replicated requires a seeded config (RunConfig.seed)")
    seeded = [cfg.with_(seed=derive_seed(cfg.seed, i)) for i in range(replicas)]
    sched = active_scheduler()
    if sched is not None:
        results = sched.map(seeded)
    else:
        results = [run(c) for c in seeded]
    stats = replication_stats([r.elapsed_s for r in results])
    # A fresh record (never mutate a possibly cached result object).
    return replace(results[0], config=cfg, stats=stats)
