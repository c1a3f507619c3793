"""Parameter sweeps and best-of selection."""

from __future__ import annotations

import logging
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.config import RunConfig, RunResult
from repro.core.registry import get_implementation
from repro.core.runner import run
from repro.machines.spec import MachineSpec

__all__ = [
    "valid_thread_counts",
    "SweepResults",
    "sweep_configs",
    "tuning_configs",
    "best_over_threads",
    "best_hybrid_config",
]

log = logging.getLogger("repro.perf.sweep")

#: Box thicknesses swept for the hybrid implementations (paper §V-E).
DEFAULT_THICKNESSES: Tuple[int, ...] = (1, 2, 3, 4, 6, 8, 10, 12, 16)


def valid_thread_counts(machine: MachineSpec, cores: int) -> List[int]:
    """Thread counts from the machine's measured set that fit ``cores``.

    A count is valid when it divides the core count, packs whole nodes
    (beyond one node) and does not exceed one node.
    """
    out = []
    node_cores = machine.node.cores
    for t in machine.thread_options:
        if t > cores or cores % t:
            continue
        if node_cores % t:
            continue
        out.append(t)
    return out


class SweepResults(List[RunResult]):
    """Results of a sweep: a plain list plus skip bookkeeping.

    ``skipped`` counts configurations rejected *eagerly* by
    :func:`repro.sched.validate_config` (infeasible thickness, no valid
    task grid, missing GPU, ...). Code that treated the return value as a
    ``list`` keeps working unchanged.
    """

    def __init__(self, results: Iterable[RunResult] = (), skipped: int = 0):
        super().__init__(results)
        self.skipped = skipped


def sweep_configs(configs: Iterable[RunConfig]) -> SweepResults:
    """Run every *feasible* configuration; count the infeasible ones.

    Invalid combinations (e.g. a thickness too thick for the subdomain)
    are part of any real sweep.  They used to be detected by swallowing
    every ``ValueError`` raised *during* simulation — which also hid real
    model and runtime errors as "invalid points".  Feasibility is now
    checked up front with :func:`repro.sched.validate_config` (the same
    rules the simulator enforces); infeasible configs are skipped and
    counted in ``.skipped``, and any error the simulator itself raises
    propagates to the caller.

    When a process-wide scheduler is installed
    (:func:`repro.sched.configure` / :func:`repro.sched.scheduled`), the
    feasible configs are executed through it — deduplicated, cache
    short-circuited and, with ``jobs > 1``, in parallel — with results
    bit-identical to this function's serial path.
    """
    from repro.sched import active_scheduler, validate_config

    valid: List[RunConfig] = []
    skipped = 0
    for cfg in configs:
        try:
            validate_config(cfg)
        except ValueError as exc:
            skipped += 1
            log.debug("sweep: skipping infeasible config: %s", exc)
            continue
        valid.append(cfg)
    if skipped:
        log.info(
            "sweep: skipped %d infeasible of %d configs",
            skipped, skipped + len(valid),
        )
    sched = active_scheduler()
    if sched is not None:
        results = sched.map(valid)
    else:
        results = [run(cfg) for cfg in valid]
    return SweepResults(results, skipped=skipped)


def _thickness_options(
    impl, impl_key: str, workload: str, thicknesses: Optional[Sequence[int]]
) -> Sequence[int]:
    # Box thickness is an advection-specific tuning axis (the Fig. 1 CPU
    # box); other workloads would reject (or worse, silently cache-split
    # on) non-default values.
    if workload != "advection":
        return (1,)
    if not impl.uses_gpu or not impl_key.startswith("hybrid"):
        return (1,)  # ignored by non-hybrid implementations
    return thicknesses if thicknesses is not None else DEFAULT_THICKNESSES


def tuning_configs(
    machine: MachineSpec,
    impl_key: str,
    cores: int,
    *,
    thicknesses: Optional[Sequence[int]] = None,
    thread_counts: Optional[Sequence[int]] = None,
    steps: int = 2,
    network: str = "mirror",
    workload: str = "advection",
    workload_params: Tuple[Tuple[str, object], ...] = (),
) -> List[RunConfig]:
    """The tuning cross-product for one (impl, cores) sweep point.

    Enumerates threads x thicknesses in a deterministic order (the same
    order :func:`best_over_threads` evaluates, so tie-breaking by ``max``
    is reproducible); combinations the config constructor itself rejects
    are dropped here, deeper feasibility is left to
    :func:`repro.sched.validate_config`.  Shared by ``best_over_threads``
    and the sweep CLI's ``--dry-run``/``--peer`` paths.
    """
    impl = get_implementation(impl_key, workload=workload)
    threads = list(thread_counts if thread_counts is not None else
                   valid_thread_counts(machine, cores))
    if not impl.uses_mpi:
        # Single-task implementations use all requested cores as threads.
        threads = [cores] if cores <= machine.node.cores else []
    cfgs = []
    for t in threads:
        for thickness in _thickness_options(impl, impl_key, workload, thicknesses):
            try:
                cfgs.append(
                    RunConfig(
                        machine=machine,
                        implementation=impl_key,
                        cores=cores,
                        threads_per_task=t,
                        steps=steps,
                        box_thickness=thickness,
                        network=network,
                        workload=workload,
                        workload_params=workload_params,
                    )
                )
            except ValueError:
                continue
    return cfgs


def best_over_threads(
    machine: MachineSpec,
    impl_key: str,
    cores: int,
    *,
    thicknesses: Optional[Sequence[int]] = None,
    thread_counts: Optional[Sequence[int]] = None,
    steps: int = 2,
    network: str = "mirror",
    workload: str = "advection",
    workload_params: Tuple[Tuple[str, object], ...] = (),
) -> Optional[RunResult]:
    """Best result over the tuning space, like each point of Figs. 3-12.

    Returns ``None`` when no valid configuration exists (e.g. a single-task
    implementation asked for multiple nodes).
    """
    cfgs = tuning_configs(
        machine, impl_key, cores,
        thicknesses=thicknesses, thread_counts=thread_counts,
        steps=steps, network=network,
        workload=workload, workload_params=workload_params,
    )
    results = sweep_configs(cfgs)
    if not results:
        return None
    return max(results, key=lambda r: r.gflops)


def best_hybrid_config(
    machine: MachineSpec,
    cores: int,
    impl_key: str = "hybrid_overlap",
    thicknesses: Optional[Sequence[int]] = None,
    thread_counts: Optional[Sequence[int]] = None,
) -> Optional[RunResult]:
    """Best (threads, thickness) for a hybrid implementation (Figs. 11/12)."""
    return best_over_threads(
        machine,
        impl_key,
        cores,
        thicknesses=thicknesses,
        thread_counts=thread_counts,
    )
