"""Per-rank execution context: timed cost helpers over the machine models.

The context is the single place where an implementation's program touches
simulated time. CPU work comes back as timeout events to ``yield``; GPU
work goes through the :class:`~repro.simgpu.device.Gpu` streams. In mirror
mode, ``gpu_share`` (> 1 when several MPI tasks drive one GPU) scales both
kernel durations and PCIe bytes, standing in for the contention that the
full backend produces naturally when ranks share a device.

Cost helpers charge time with bare callback slots (``env.schedule``) where
no caller ever yields on the occurrence — on the flat event core
(docs/MODEL.md §12) those are allocation-free bucket appends — and with
:class:`~repro.des.Timeout` events where an implementation's coroutine
waits on the result.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.config import RunConfig
from repro.core.data import RankData
from repro.decomp.partition import Decomposition, RankLayout, Subdomain
from repro.des import Environment, Event
from repro.machines.cpu_model import (
    memcpy_time,
    task_compute_time,
    task_memory_bandwidth,
)
from repro.machines.calibration import COPY_BYTES_PER_POINT
from repro.simgpu.blockmodel import stencil_kernel_time
from repro.simgpu.device import Gpu, Stream
from repro.simmpi.api import Plan, RankComm
from repro.stencil.coefficients import FLOPS_PER_POINT

__all__ = ["RankContext", "FACE_PACK_STRIDE_PENALTY"]

#: Host-side pack/unpack stride penalty per face-normal dimension, for the
#: paper's Fortran layout (x contiguous): x faces gather fully strided
#: elements, y faces gather contiguous x runs, z faces are contiguous slabs.
FACE_PACK_STRIDE_PENALTY = {0: 0.5, 1: 0.8, 2: 1.0}

#: GPU boundary-face kernel rate multipliers per face-normal dimension for
#: the §IV-F/G kernels (which fuse halo unpack and outgoing-buffer writes
#: into the face computation, per the paper's own description): x faces are
#: fully non-coalesced (the calibrated ``face_kernel_gflops``), y faces
#: read contiguous x runs (4x better), z faces are coalesced planes but
#: still pay the fused copies and per-face launches (8x better). The clean
#: §IV-I block-boundary kernels instead run at the thin-slab rate.
FACE_KERNEL_MULTIPLIER = {0: 1.0, 1: 4.0, 2: 8.0}


class RankContext:
    """Everything one rank's program needs."""

    def __init__(
        self,
        env: Environment,
        cfg: RunConfig,
        sub: Subdomain,
        decomp: Decomposition,
        comm: Optional[RankComm],
        data: RankData,
        gpu: Optional[Gpu] = None,
        gpu_share: int = 1,
    ):
        self.env = env
        self.cfg = cfg
        self.sub = sub
        self.decomp = decomp
        self.comm = comm
        self.data = data
        self.gpu = gpu
        self.gpu_share = gpu_share
        self.node = cfg.machine.node
        self.threads = cfg.threads_per_task
        self.phases: Dict[str, float] = defaultdict(float)
        #: optional repro.obs tracer (RunConfig.trace); shared with the GPU,
        #: the communicator, and the shared links.
        self.tracer = None
        #: optional repro.perturb injector (RunConfig.seed + noise); None on
        #: the noiseless path, so each hook costs one pointer comparison.
        self.perturb = None
        #: free-form per-implementation state (device arrays, streams, ...)
        self.state: Dict[str, object] = {}
        #: threads -> task_memory_bandwidth(node, threads); the node is fixed
        #: for the context, so each thread count is computed once.
        self._mem_bw_by_threads: Dict[int, float] = {}
        #: host-compute slowdown charged for a software MPI progress thread
        #: (ProgressModel.PROGRESS_THREAD only; 0.0 — and therefore one
        #: falsy check per charge — under manual poll and hardware offload).
        #: Communication-free ranks (comm is None) run untaxed: nobody polls.
        self._progress_tax = (
            cfg.machine.interconnect.progress_tax if comm is not None else 0.0
        )

    # -- bookkeeping -----------------------------------------------------------
    def _charge(self, phase: str, seconds: float) -> Event:
        if self.perturb is not None and seconds > 0.0:
            # OS jitter + straggler slowdown on every host-side chunk.
            seconds *= self.perturb.compute_factor(self.sub.rank)
        if self._progress_tax and seconds > 0.0:
            # The progress thread steals cycles from every host-side chunk.
            seconds *= 1.0 + self._progress_tax
        self.phases[phase] += seconds
        if self.tracer is not None and seconds > 0:
            self.tracer.record(
                "host", phase, self.env.now, self.env.now + seconds,
                group=self.sub.rank, cat="host",
            )
        return self.env.timeout(seconds)

    # -- CPU costs ---------------------------------------------------------------
    def _mem_bw(self, threads: int) -> float:
        bw = self._mem_bw_by_threads.get(threads)
        if bw is None:
            bw = self._mem_bw_by_threads[threads] = task_memory_bandwidth(
                self.node, threads
            )
        return bw

    def compute(
        self,
        points: int,
        *,
        boundary: bool = False,
        guided: bool = False,
        efficiency: Optional[float] = None,
        pieces: int = 1,
        phase: str = "compute",
    ) -> Event:
        """Timed stencil sweep of ``points`` on this task's threads.

        ``pieces`` > 1 charges the sweep as that many separate OpenMP
        parallel regions (e.g. the six boundary-shell slab loops of the
        overlap implementations each fork/join on their own).
        """
        eff = efficiency if efficiency is not None else (
            self.node.boundary_loop_efficiency if boundary else 1.0
        )
        t = task_compute_time(
            self.node, self.threads, points, efficiency=eff, guided=guided,
            mem_bandwidth=self._mem_bw(self.threads),
        )
        if pieces > 1:
            from repro.machines.cpu_model import omp_region_overhead

            t += (pieces - 1) * omp_region_overhead(self.node, self.threads)
        return self._charge(phase, t)

    def compute_custom(
        self,
        points: int,
        *,
        flops_per_point: float,
        bytes_per_point: float,
        efficiency: float = 1.0,
        guided: bool = False,
        pieces: int = 1,
        phase: str = "compute",
    ) -> Event:
        """Timed loop with a workload-specific arithmetic intensity.

        The stencil's :meth:`compute` bakes in the advection kernel's
        flop/byte mix; non-stencil workloads (e.g. SpMV, charged per
        stored nonzero) supply their own.
        """
        t = task_compute_time(
            self.node,
            self.threads,
            points,
            bytes_per_point=bytes_per_point,
            flops_per_point=flops_per_point,
            efficiency=efficiency,
            guided=guided,
            mem_bandwidth=self._mem_bw(self.threads),
        )
        if pieces > 1:
            from repro.machines.cpu_model import omp_region_overhead

            t += (pieces - 1) * omp_region_overhead(self.node, self.threads)
        return self._charge(phase, t)

    def compute_seconds(
        self, points: int, *, threads: Optional[int] = None, guided: bool = False,
        efficiency: float = 1.0,
    ) -> float:
        """Sweep duration as a number (for piecewise-rate overlap math)."""
        if points <= 0:
            return 0.0
        threads = threads if threads is not None else self.threads
        return task_compute_time(
            self.node,
            threads,
            points,
            efficiency=efficiency,
            guided=guided,
            mem_bandwidth=self._mem_bw(threads),
        )

    def copy_state_cost(self, points: int) -> Event:
        """Timed Step-3 state copy."""
        t = task_compute_time(
            self.node,
            self.threads,
            points,
            bytes_per_point=COPY_BYTES_PER_POINT,
            flops_per_point=0.25,
            mem_bandwidth=self._mem_bw(self.threads),
        )
        return self._charge("copy", t)

    def memcpy(
        self,
        nbytes: int,
        stride_penalty: float = 1.0,
        phase: str = "pack",
        threads: Optional[int] = None,
    ) -> Event:
        """Timed on-node copy (halo pack/unpack, buffer staging)."""
        threads = threads if threads is not None else self.threads
        return self._charge(
            phase,
            memcpy_time(
                self.node, nbytes, threads, stride_penalty, self._mem_bw(threads)
            ),
        )

    def host_delay(self, seconds: float, phase: str = "host") -> Event:
        """Arbitrary host-side delay (e.g. kernel-launch overhead)."""
        return self._charge(phase, seconds)

    # -- GPU costs -----------------------------------------------------------------
    def _require_gpu(self) -> Gpu:
        if self.gpu is None:
            raise RuntimeError(f"{self.cfg.implementation}: no GPU in this context")
        return self.gpu

    @property
    def gpudirect(self) -> bool:
        """GPU-aware MPI on this rank: device buffers are sent/received
        directly by the NIC (GPUDirect RDMA), so the GPU+MPI implementations
        skip their host-staging PCIe hops.  Requires both a device in the
        context and an interconnect flagged ``gpudirect``; False on every
        paper-era machine, preserving their §IV-F/G staging bit-for-bit.
        """
        return self.gpu is not None and self.cfg.machine.interconnect.gpudirect

    def launch_cost(self, n_ops: int = 1) -> Event:
        """Host time to issue ``n_ops`` device operations."""
        gpu = self._require_gpu()
        return self._charge("launch", n_ops * gpu.host_launch_cost_s)

    def stencil_kernel(
        self,
        stream: Stream,
        points: int,
        shape: Optional[Sequence[int]] = None,
        action: Optional[Callable[[], None]] = None,
        name: str = "stencil",
    ) -> Event:
        """Issue the tiled stencil kernel over ``points`` (uniform, fast)."""
        gpu = self._require_gpu()
        t = stencil_kernel_time(
            gpu.spec, points, self.cfg.block, tuple(shape or self.sub.shape)
        )
        return gpu.launch_kernel(stream, t * self.gpu_share, action, name)

    def face_kernel(
        self,
        stream: Stream,
        points: int,
        normal_dim: int,
        action: Optional[Callable[[], None]] = None,
        name: str = "face",
    ) -> Event:
        """Issue a §IV-F/G boundary-face kernel (slow; see multipliers)."""
        gpu = self._require_gpu()
        rate = gpu.spec.face_kernel_gflops * FACE_KERNEL_MULTIPLIER[normal_dim] * 1e9
        t = points * FLOPS_PER_POINT / rate
        return gpu.launch_kernel(stream, t * self.gpu_share, action, name)

    def thin_kernel(
        self,
        stream: Stream,
        points: int,
        action: Optional[Callable[[], None]] = None,
        name: str = "thin",
    ) -> Event:
        """Issue a thin uniform slab kernel (coalesced, limited parallelism)."""
        gpu = self._require_gpu()
        rate = gpu.spec.stencil_gflops_best * gpu.spec.thin_slab_efficiency * 1e9
        t = points * FLOPS_PER_POINT / rate
        return gpu.launch_kernel(stream, t * self.gpu_share, action, name)

    def device_copy_kernel(
        self,
        stream: Stream,
        nbytes: int,
        normal_dim: int,
        action: Optional[Callable[[], None]] = None,
        name: str = "devcopy",
    ) -> Event:
        """Device-side face buffer pack/unpack (strided for x/y normals)."""
        gpu = self._require_gpu()
        if normal_dim == 2:
            rate = gpu.spec.mem_bandwidth_gbs * 1e9 * 0.5
        else:
            rate = gpu.spec.strided_copy_gbs * 1e9
        t = 2 * nbytes / rate  # read + write
        return gpu.launch_kernel(stream, t * self.gpu_share, action, name)

    def h2d(self, stream: Stream, nbytes: int, action=None, name: str = "h2d") -> Event:
        """Async pinned host-to-device copy."""
        gpu = self._require_gpu()
        return gpu.memcpy_h2d(stream, nbytes * self.gpu_share, action, name)

    def d2h(self, stream: Stream, nbytes: int, action=None, name: str = "d2h") -> Event:
        """Async pinned device-to-host copy."""
        gpu = self._require_gpu()
        return gpu.memcpy_d2h(stream, nbytes * self.gpu_share, action, name)

    def pcie_sync(self, nbytes: int, phase: str = "pcie") -> Event:
        """Blocking unpinned copy (the §IV-F path): host stalls for it.

        The driver services synchronous pageable copies one at a time, so
        concurrent tasks sharing the GPU queue on its ``sync_copy_lock``
        (the mirror backend's ``gpu_share`` models the same queueing for
        phantom node peers).
        """
        gpu = self._require_gpu()
        t = gpu.spec.pcie_latency_s + (
            nbytes * self.gpu_share / (gpu.spec.pcie_unpinned_gbs * 1e9)
        )
        if self.perturb is not None and t > 0.0:
            t *= self.perturb.pcie_factor(self.sub.rank)
        self.phases[phase] += t
        env = self.env
        done = env.event()
        lock = gpu.sync_copy_lock.request()
        tracer = self.tracer
        rank = self.sub.rank

        def granted(_ev):
            start = env.now

            def finish(_a):
                gpu.sync_copy_lock.release(lock)
                if tracer is not None:
                    tracer.record(
                        "pcie", phase, start, env.now, group=rank, cat="copy",
                        args={"dev": gpu.name, "nbytes": nbytes},
                    )
                done.succeed()

            env.schedule(t, finish)

        lock.callbacks.append(granted)
        return done

    # -- topology helpers --------------------------------------------------------
    @cached_property
    def layout(self) -> RankLayout:
        """This rank's layout, shared with every run of the decomposition
        (advection decompositions only; read on first use)."""
        return self.decomp.layout(self.sub.rank)

    def neighbor(self, dim: int, side: int) -> int:
        """Face-neighbor rank."""
        return self.decomp.neighbor(self.sub.rank, dim, side)

    def face_bytes(self, dim: int) -> int:
        """Bytes of one halo face message in ``dim``."""
        return self.layout.face_bytes[dim]

    def halo_plan(self, dim: int) -> Tuple[Plan, Plan]:
        """``(recv_plan, send_plan)`` of the ``dim`` face exchange, both
        listing the ``-1`` side first (:class:`RankLayout`)."""
        return self.layout.halo_plans[dim]
