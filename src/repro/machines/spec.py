"""Hardware specification dataclasses.

Fields marked "Table II" are transcribed from the paper; fields marked
"calibrated" are effective rates fitted to the paper's reported results
(see :mod:`repro.machines.calibration` for values and provenance).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cache import KeyMemo

__all__ = [
    "ProgressModel",
    "NodeSpec",
    "InterconnectSpec",
    "GpuSpec",
    "MachineSpec",
    "normalize_machine_name",
]


def normalize_machine_name(name: str) -> str:
    """Canonical lookup key for a machine name.

    Lowercased with spaces and hyphens stripped, so ``"A100-SXM"``,
    ``"a100 sxm"`` and ``"A100SXM"`` all address the same catalog entry.
    Used by both the catalog registration and every lookup path
    (:func:`repro.machines.catalog.get_machine`,
    :meth:`repro.perturb.NoiseSpec.for_machine`) — keeping registration
    and lookup normalization identical is what makes hyphenated names
    resolvable at all.
    """
    return name.lower().replace(" ", "").replace("-", "")


class ProgressModel(str, enum.Enum):
    """How the MPI library progresses wire traffic while the host computes.

    The paper's libraries (Cray MPT, OpenMPI circa 2011) progress mostly
    *inside* MPI calls: a nonblocking transfer advances only by the
    calibrated ``overlap_fraction`` between post and wait, and eager
    messages not at all (the receiver must enter the library to drain
    them).  That behaviour is ``MANUAL_POLL``, the default, and is
    bit-identical to the model before progress models existed.

    ``PROGRESS_THREAD`` models a software progress engine (a dedicated
    helper thread or "MPI progress for all"-style continuations): nearly
    all wire time advances in the background — eager and rendezvous alike
    — but the polling thread steals host cycles, charged as a fractional
    tax on host compute (``progress_host_tax``).

    ``HARDWARE_OFFLOAD`` models NIC-resident progress (Slingshot/EFA/
    Portals-class hardware with full offload): every posted byte moves at
    wire rate regardless of what the host is doing, at no host cost.
    """

    MANUAL_POLL = "manual-poll"
    PROGRESS_THREAD = "progress-thread"
    HARDWARE_OFFLOAD = "hardware-offload"


@dataclass(frozen=True)
class NodeSpec(KeyMemo):
    """One compute node's CPU side."""

    sockets: int  # Table II: AMD Opteron sockets per node
    cores_per_socket: int  # Table II
    clock_ghz: float  # Table II: Opteron clock
    memory_gb: float  # Table II: memory per node
    numa_domains_per_socket: int = 1  # 2 for Magny-Cours (two 6-core dies)
    flops_per_cycle: float = 4.0  # SSE2 double precision: 2 mul + 2 add
    # calibrated:
    stencil_flop_efficiency: float = 0.16  # achieved fraction of peak on Eq. 2
    numa_bandwidth_gbs: float = 10.0  # streaming GB/s per NUMA domain
    numa_remote_penalty: float = 0.82  # bandwidth factor per extra NUMA domain spanned
    memcpy_bandwidth_gbs: float = 5.0  # single large on-node copy
    omp_region_overhead_us: float = 3.0  # fork/join + static-schedule barrier
    omp_per_thread_overhead_us: float = 0.25  # added per participating thread
    # calibrated: per-extra-thread loss of parallel efficiency (collapse(2)
    # imbalance, shared-cache interference); what makes pure-MPI (1 thread)
    # fastest when communication is cheap (paper §V-B, low core counts).
    omp_parallel_inefficiency: float = 0.006
    # calibrated: efficiency of the short strided boundary-shell loops the
    # overlap implementations use (§IV-C/D); per-node because prefetcher
    # quality differs across the Opteron generations.
    boundary_loop_efficiency: float = 0.45

    @property
    def cores(self) -> int:
        """Total cores per node."""
        return self.sockets * self.cores_per_socket

    @property
    def numa_domains(self) -> int:
        """Total NUMA domains per node."""
        return self.sockets * self.numa_domains_per_socket

    @property
    def cores_per_numa(self) -> int:
        """Cores in one NUMA domain."""
        return self.cores // self.numa_domains

    @property
    def peak_gflops_per_core(self) -> float:
        """Peak double-precision GF per core."""
        return self.clock_ghz * self.flops_per_cycle


@dataclass(frozen=True)
class InterconnectSpec(KeyMemo):
    """Parallel interconnect + MPI implementation behaviour."""

    name: str  # Table II: interconnect
    mpi_name: str  # Table II: MPI
    latency_us: float  # calibrated: small-message half round trip
    bandwidth_gbs: float  # calibrated: per-NIC injection bandwidth
    per_message_cpu_us: float = 1.0  # calibrated: sender/receiver CPU overhead
    # Fraction of wire time that progresses while the host computes between
    # posting a nonblocking operation and waiting on it. The paper's MPI
    # libraries progress mostly inside MPI calls ([1] in the paper), so this
    # is well below 1. Only consulted under ``ProgressModel.MANUAL_POLL``.
    overlap_fraction: float = 0.35
    eager_threshold_bytes: int = 8192
    # How the library progresses traffic in the background (see
    # :class:`ProgressModel`). The default reproduces the paper era exactly.
    progress: ProgressModel = ProgressModel.MANUAL_POLL
    # PROGRESS_THREAD: background fraction for *all* messages (eager included
    # — the helper thread drains the receive queue without the application
    # entering MPI), and the fractional host-compute slowdown the polling
    # thread costs while ranks overlap communication.
    progress_overlap_fraction: float = 0.95
    progress_host_tax: float = 0.05
    # NICs per node sharing the injection load (EFA-style multi-rail).  Each
    # NIC is an independent fair-share link of ``bandwidth_gbs``; ranks are
    # striped across rails round-robin.
    nics_per_node: int = 1
    # GPU-aware MPI: the NIC DMAs GPU memory directly (GPUDirect RDMA), so
    # device buffers skip the host-staging PCIe hop in the GPU+MPI
    # implementations.
    gpudirect: bool = False

    #: New fields are omitted from the cache-key canonical form while at
    #: their defaults, so pre-existing cache keys (and the pinned keys in
    #: tests/perturb) remain stable. Same precedent as config seed/noise.
    _KEY_OMIT_DEFAULTS = {
        "progress": ProgressModel.MANUAL_POLL,
        "progress_overlap_fraction": 0.95,
        "progress_host_tax": 0.05,
        "nics_per_node": 1,
        "gpudirect": False,
    }

    def __post_init__(self):
        # Accept plain strings ("hardware-offload") anywhere a model is
        # given; normalize to the enum so identity checks and ``.value``
        # work uniformly. Invalid names raise ValueError here.
        object.__setattr__(self, "progress", ProgressModel(self.progress))
        if not 0.0 <= self.progress_overlap_fraction <= 1.0:
            raise ValueError("progress_overlap_fraction must be in [0, 1]")
        if self.progress_host_tax < 0.0:
            raise ValueError("progress_host_tax must be >= 0")
        if self.nics_per_node < 1:
            raise ValueError("nics_per_node must be >= 1")

    @property
    def latency_s(self) -> float:
        """Latency in seconds."""
        return self.latency_us * 1e-6

    @property
    def bandwidth_bps(self) -> float:
        """Bandwidth in bytes/second."""
        return self.bandwidth_gbs * 1e9

    def background_fraction(self, eager: bool) -> float:
        """Fraction of a message's wire bytes that move without host help.

        The single point where the progress model meets the transfer
        engines: the send price both MPI backends share
        (:mod:`repro.simmpi.message`) calls this once per protocol, for
        the background start *and* the foreground remainder, so the two
        always agree.  Local (shared-memory) transfers never consult it —
        they are memcpys.
        """
        if self.progress is ProgressModel.MANUAL_POLL:
            # 2011 behaviour: eager sends sit in the receive queue until
            # the receiver enters the library; rendezvous advances by the
            # calibrated in-library fraction.
            return 0.0 if eager else self.overlap_fraction
        if self.progress is ProgressModel.PROGRESS_THREAD:
            return self.progress_overlap_fraction
        return 1.0  # HARDWARE_OFFLOAD: the NIC needs no host cycles

    @property
    def progress_tax(self) -> float:
        """Host-compute slowdown (fractional) charged for background progress.

        Nonzero only for ``PROGRESS_THREAD``: the polling thread steals
        cycles from the compute cores.  Hardware offload is free; manual
        poll has no background progress to pay for.
        """
        if self.progress is ProgressModel.PROGRESS_THREAD:
            return self.progress_host_tax
        return 0.0


@dataclass(frozen=True)
class GpuSpec(KeyMemo):
    """One GPU plus its host link."""

    name: str  # Table II: NVIDIA Tesla GPU
    memory_gb: float  # Table II: GPU memory
    sm_count: int
    warp_size: int  # 32 on both generations (paper §V-C)
    max_threads_per_block: int  # 512 on C1060, 1024 on C2050 (paper §V-C)
    max_threads_per_sm: int
    max_blocks_per_sm: int
    shared_mem_per_sm_kb: float
    dp_peak_gflops: float
    mem_bandwidth_gbs: float  # calibrated: effective global-memory streaming
    # Host link (PCIe):
    pcie_bandwidth_gbs: float  # calibrated effective for pinned/async copies
    pcie_latency_us: float
    copy_engines: int  # 1 on C1060, 2 on C2050
    # Whether kernels from different streams genuinely overlap. Fermi
    # advertises concurrent kernels, but a full-occupancy stencil kernel
    # saturates every SM, so in practice trailing kernels serialize; both
    # devices are modeled without kernel-kernel overlap.
    concurrent_kernels: bool = False
    kernel_launch_us: float = 7.0
    # calibrated: synchronous copies of pageable (unpinned) buffers — what
    # the bulk GPU+MPI implementation (§IV-F) issues — run far below the
    # async pinned rate.
    pcie_unpinned_gbs: float = 1.0
    # calibrated: device-side strided gather/scatter kernels that pack x/y
    # face buffers (non-coalesced copies).
    strided_copy_gbs: float = 2.0
    # calibrated: stencil rate of the resident kernel at its best block size
    # (block-size shaping in simgpu.blockmodel scales relative to this), and
    # the rate of the one-point-thick boundary-face kernels of §IV-F/G
    # (non-coalesced, mostly-idle warps — the mechanism behind §V-E's 86->24).
    stencil_gflops_best: float = 50.0
    face_kernel_gflops: float = 0.5
    # calibrated: rate of thin uniform slab kernels (the GPU-block boundary
    # layer in §IV-I and z-perpendicular faces): coalesced but too little
    # parallelism to fill the device.
    thin_slab_efficiency: float = 0.16
    # calibrated: empirical y-block-size sweet spot of the measured kernels
    # (paper Figs. 7/8: 32x11 on C1060, 32x8 on C2050). Register pressure and
    # scheduler effects the occupancy arithmetic cannot see; modeled as a
    # Gaussian bump over the y block dimension (see simgpu.blockmodel).
    by_sweet_spot: float = 8.0
    by_sweet_amp: float = 0.30
    by_sweet_tol: float = 4.0
    regs_per_thread: int = 30
    register_file_size: int = 32768
    # NVLink-class intra-node peer fabric (0 = PCIe-only device: peer
    # copies stage through the host).  Modeled as one fair-share link per
    # node that every resident GPU's peer copies contend on.
    nvlink_bandwidth_gbs: float = 0.0
    nvlink_latency_us: float = 2.0

    #: Cache-key stability: see InterconnectSpec._KEY_OMIT_DEFAULTS.
    _KEY_OMIT_DEFAULTS = {
        "nvlink_bandwidth_gbs": 0.0,
        "nvlink_latency_us": 2.0,
    }

    @property
    def pcie_bandwidth_bps(self) -> float:
        """PCIe effective bandwidth in bytes/second."""
        return self.pcie_bandwidth_gbs * 1e9

    @property
    def pcie_latency_s(self) -> float:
        """Per-transfer PCIe/driver latency in seconds."""
        return self.pcie_latency_us * 1e-6

    @property
    def nvlink_bandwidth_bps(self) -> float:
        """NVLink peer bandwidth in bytes/second (0 when absent)."""
        return self.nvlink_bandwidth_gbs * 1e9

    @property
    def nvlink_latency_s(self) -> float:
        """Per-transfer NVLink latency in seconds."""
        return self.nvlink_latency_us * 1e-6

    @property
    def has_nvlink(self) -> bool:
        """Whether this device has an NVLink-class peer fabric."""
        return self.nvlink_bandwidth_gbs > 0.0


@dataclass(frozen=True)
class MachineSpec(KeyMemo):
    """A whole machine: nodes, interconnect, optional GPUs (Table II)."""

    name: str
    compute_nodes: int  # Table II
    node: NodeSpec
    interconnect: InterconnectSpec
    gpu: Optional[GpuSpec] = None
    gpus_per_node: int = 0
    # OpenMP threads-per-task values measured in the paper (§V-B):
    thread_options: Tuple[int, ...] = (1,)
    # Core counts plotted in the paper's scaling figures:
    figure_core_counts: Tuple[int, ...] = ()

    @property
    def total_cores(self) -> int:
        """All CPU cores in the machine."""
        return self.compute_nodes * self.node.cores
