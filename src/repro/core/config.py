"""Run configuration and result records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Tuple

import numpy as np

from repro.cache import KeyMemo
from repro.obs.tracer import Tracer
from repro.machines.spec import MachineSpec
from repro.perturb.spec import NoiseSpec
from repro.stencil.coefficients import FLOPS_PER_POINT

__all__ = ["RunConfig", "RunResult"]


@dataclass(frozen=True)
class RunConfig(KeyMemo):
    """One benchmark configuration (a point in the paper's tuning space).

    Parameters
    ----------
    machine:
        Which of the Table II machines to simulate.
    implementation:
        Key from :data:`repro.core.registry.IMPLEMENTATIONS`.
    cores:
        Total CPU cores (the x axis of the scaling figures). Must fill whole
        nodes beyond one node.
    threads_per_task:
        OpenMP threads per MPI task (the paper's primary tuning knob).
    steps:
        Time steps to run between the timing barriers.
    domain:
        Global grid (the paper uses 420^3).
    velocity:
        Constant uniform advection velocity; every component nonzero
        exercises all 27 coefficients.
    nu_fraction:
        nu as a fraction of the maximum stable value (paper runs at 1.0).
    block:
        GPU thread-block (bx, by); ``None`` = best block for the device.
    box_thickness:
        CPU box wall thickness of Fig. 1 (hybrid implementations).
    functional:
        Allocate real fields and compute real numbers (small grids only).
    network:
        ``"mirror"`` (representative rank; fast, any scale) or ``"full"``
        (every rank simulated; required for functional runs).
    trace:
        Record an execution timeline of the representative rank.
    seed:
        Root seed of the perturbation layer (:mod:`repro.perturb`).
        ``None`` (the default) disables every noise/fault model and keeps
        the simulator bit-identical to the noiseless path — including its
        cache keys.
    noise:
        The :class:`~repro.perturb.spec.NoiseSpec` describing how much
        variability to inject; requires ``seed``. ``None`` or a null spec
        means no perturbation.
    disable_stream_overlap / disable_mpi_overlap:
        Ablation switches for the hybrid-overlap implementation, used to
        decompose where its win comes from (see
        ``benchmarks/bench_ablation_overlap.py``).
    """

    machine: MachineSpec
    implementation: str
    cores: int
    threads_per_task: int = 1
    steps: int = 2
    domain: Tuple[int, int, int] = (420, 420, 420)
    velocity: Tuple[float, float, float] = (1.0, 0.9, 0.8)
    nu_fraction: float = 1.0
    sigma: float = 0.08
    block: Optional[Tuple[int, int]] = None
    box_thickness: int = 1
    functional: bool = False
    network: str = "mirror"
    #: record an execution timeline (see repro.obs.tracer); small overhead.
    trace: bool = False
    #: root seed of the perturbation layer; None = noiseless (bit-identical
    #: to the pre-perturbation simulator, cache keys unchanged).
    seed: Optional[int] = None
    #: noise/fault knobs (repro.perturb.spec.NoiseSpec); requires ``seed``.
    noise: Optional[NoiseSpec] = None
    #: ablation switch: serialize the hybrid-overlap GPU streams against the
    #: host (no kernel/copy hidden behind CPU work).
    disable_stream_overlap: bool = False
    #: ablation switch: complete each MPI dimension before computing the
    #: walls it would have hidden (no MPI hidden behind CPU work).
    disable_mpi_overlap: bool = False
    #: which timed program family to run (repro.workloads registry key);
    #: "advection" is the pre-workload behaviour.
    workload: str = "advection"
    #: workload-specific problem knobs as (name, value) pairs — a
    #: hashable stand-in for a dict on this frozen config (e.g.
    #: (("band", 64), ("rows", 1 << 20)) for spmv). Normalized to sorted
    #: tuple form in __post_init__. Empty for advection.
    workload_params: Tuple[Tuple[str, Any], ...] = ()

    #: Fields left out of the cache key while at these defaults: a config
    #: with the default workload hashes exactly as it did before the
    #: workload layer existed, so every pre-workload cache entry stays
    #: addressable without a model-version bump (the PR 9 spec pattern;
    #: honored both by cache._canonical and by cache.config_key itself).
    _KEY_OMIT_DEFAULTS: ClassVar[Dict[str, Any]] = {
        "workload": "advection",
        "workload_params": (),
    }

    def __post_init__(self):
        node_cores = self.machine.node.cores
        if self.threads_per_task < 1 or self.threads_per_task > node_cores:
            raise ValueError(
                f"{self.threads_per_task} threads/task impossible on "
                f"{node_cores}-core {self.machine.name} nodes"
            )
        if node_cores % self.threads_per_task:
            raise ValueError(
                f"{self.threads_per_task} threads/task does not pack "
                f"{node_cores}-core nodes"
            )
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.cores > node_cores and self.cores % node_cores:
            raise ValueError(
                f"{self.cores} cores is not a whole number of "
                f"{node_cores}-core nodes"
            )
        if self.cores % self.threads_per_task:
            raise ValueError("cores must be divisible by threads_per_task")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.network not in ("mirror", "full"):
            raise ValueError(f"unknown network backend {self.network!r}")
        if self.functional and self.network != "full":
            raise ValueError("functional runs require the full network backend")
        if self.noise is not None and not isinstance(self.noise, NoiseSpec):
            raise ValueError(f"noise must be a NoiseSpec, got {type(self.noise).__name__}")
        if self.noise is not None and not self.noise.is_null and self.seed is None:
            raise ValueError("noise injection requires a seed (set RunConfig.seed)")
        if self.seed is not None and self.seed != int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.workload, str) or not self.workload:
            raise ValueError(f"workload must be a non-empty string, got {self.workload!r}")
        # Normalize workload_params to a sorted tuple of (str, scalar)
        # pairs so equal param sets hash to one cache key regardless of
        # the order (or container type) the caller supplied them in.
        try:
            pairs = [(str(k), v) for k, v in self.workload_params]
        except (TypeError, ValueError):
            raise ValueError(
                "workload_params must be (name, value) pairs, got "
                f"{self.workload_params!r}"
            ) from None
        names = [k for k, _ in pairs]
        if len(set(names)) != len(names):
            dupes = sorted({k for k in names if names.count(k) > 1})
            raise ValueError(f"duplicate workload_params: {dupes}")
        for k, v in pairs:
            if not isinstance(v, (int, float, str, bool)):
                raise ValueError(
                    f"workload_params[{k!r}] must be a scalar, got {type(v).__name__}"
                )
        object.__setattr__(self, "workload_params", tuple(sorted(pairs)))

    # -- derived layout -------------------------------------------------------
    @property
    def ntasks(self) -> int:
        """MPI tasks."""
        return self.cores // self.threads_per_task

    @property
    def tasks_per_node(self) -> int:
        """Tasks packed on one node (also tasks sharing one GPU)."""
        return min(self.ntasks, self.machine.node.cores // self.threads_per_task)

    @property
    def nodes(self) -> int:
        """Nodes used."""
        return math.ceil(self.ntasks / self.tasks_per_node)

    @property
    def total_points(self) -> int:
        """Global grid points."""
        nx, ny, nz = self.domain
        return nx * ny * nz

    @property
    def params(self) -> Dict[str, Any]:
        """``workload_params`` as a dict (workload-specific knobs)."""
        return dict(self.workload_params)

    @property
    def nu(self) -> float:
        """The time-step/grid-spacing ratio actually used."""
        from repro.stencil.coefficients import max_stable_nu

        return self.nu_fraction * max_stable_nu(self.velocity)

    def with_(self, **changes) -> "RunConfig":
        """A copy with some fields replaced."""
        from dataclasses import replace

        return replace(self, **changes)


@dataclass
class RunResult:
    """Outcome of one run."""

    config: RunConfig
    elapsed_s: float  # simulated seconds between the timing barriers
    #: per-category simulated-time breakdown of the representative rank
    #: (compute / mpi / pcie / gpu_wait ...), advisory.
    phases: Dict[str, float] = field(default_factory=dict)
    #: assembled global field (functional runs only)
    global_field: Optional[np.ndarray] = None
    #: error norms vs the analytic solution (functional runs only)
    norms: Optional[Dict[str, float]] = None
    #: execution timeline of the run (trace=True runs simulated through
    #: :func:`repro.core.runner.run` only; never cached, and never set on
    #: a :func:`repro.core.runner.overlap_summary` result)
    tracer: Optional["Tracer"] = None
    #: derived overlap metrics (:class:`repro.obs.metrics.OverlapMetrics`,
    #: trace=True runs only); :func:`repro.core.runner.overlap_summary`
    #: may replay them from the run cache's summary entry
    overlap: Optional[object] = None
    #: MPI counters (messages/bytes sent/received) summed over the
    #: simulated ranks: the representative rank's own traffic under
    #: ``network="mirror"``, every rank's (the global traffic) under
    #: ``network="full"``. One meaning for both is ROADMAP item 3.
    comm_stats: Dict[str, int] = field(default_factory=dict)
    #: Monte-Carlo replication summary (mean/std/p95/ci95 of elapsed_s over
    #: N seeded replicas; see repro.perturb.stats). Only set by
    #: :func:`repro.core.runner.run_replicated`.
    stats: Optional[Dict[str, float]] = None

    @property
    def seconds_per_step(self) -> float:
        """Simulated seconds per time step."""
        return self.elapsed_s / self.config.steps

    @property
    def gflops(self) -> float:
        """The paper's metric: analytic flops / measured seconds, in GF.

        The advection expression stays inline (the pre-workload fast
        path, bit-identical); other workloads define their own analytic
        flop count via :meth:`repro.workloads.Workload.total_flops`.
        """
        if self.config.workload == "advection":
            work = self.config.total_points * FLOPS_PER_POINT * self.config.steps
        else:
            from repro.workloads import get_workload

            work = get_workload(self.config.workload).total_flops(self.config)
        return work / self.elapsed_s / 1e9

    def summary(self) -> str:
        """One-line human-readable summary."""
        c = self.config
        return (
            f"{c.machine.name:10s} {c.implementation:15s} cores={c.cores:<6d} "
            f"thr={c.threads_per_task:<2d} T={c.box_thickness:<2d} "
            f"-> {self.gflops:8.2f} GF ({self.seconds_per_step * 1e3:.3f} ms/step)"
        )
