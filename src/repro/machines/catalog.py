"""The machine catalog: Table II's four test machines plus modern scenarios.

Published fields of the paper machines come straight from Table II;
effective rates come from :mod:`repro.machines.calibration`.  The modern
entries (A100-SXM, Milan-SS11, EFA-Cloud) are datasheet projections that
exercise the progress-model and GPU-aware comm axes (ROADMAP item 3).
"""

from __future__ import annotations

from typing import Dict

from repro.machines.calibration import (
    A100_CAL,
    EFA_CAL,
    HOPPER_CAL,
    JAGUARPF_CAL,
    LENS_CAL,
    MILAN_CAL,
    YONA_CAL,
)
from repro.machines.spec import (
    GpuSpec,
    InterconnectSpec,
    MachineSpec,
    NodeSpec,
    ProgressModel,
    normalize_machine_name,
)

__all__ = [
    "JAGUARPF",
    "HOPPER",
    "LENS",
    "YONA",
    "A100_SXM",
    "MILAN_SS11",
    "EFA_CLOUD",
    "MACHINES",
    "get_machine",
]


JAGUARPF = MachineSpec(
    name="JaguarPF",
    compute_nodes=18688,
    node=NodeSpec(
        sockets=2,
        cores_per_socket=6,
        clock_ghz=2.6,
        memory_gb=16,
        numa_domains_per_socket=1,
        stencil_flop_efficiency=JAGUARPF_CAL.stencil_flop_efficiency,
        numa_bandwidth_gbs=JAGUARPF_CAL.numa_bandwidth_gbs,
        memcpy_bandwidth_gbs=JAGUARPF_CAL.memcpy_bandwidth_gbs,
    ),
    interconnect=InterconnectSpec(
        name="Cray SeaStar 2+",
        mpi_name="Cray MPT 4.0.0",
        latency_us=JAGUARPF_CAL.latency_us,
        bandwidth_gbs=JAGUARPF_CAL.bandwidth_gbs,
        per_message_cpu_us=JAGUARPF_CAL.per_message_cpu_us,
        overlap_fraction=JAGUARPF_CAL.overlap_fraction,
        eager_threshold_bytes=JAGUARPF_CAL.eager_threshold_bytes,
    ),
    thread_options=(1, 2, 3, 6, 12),
    figure_core_counts=(12, 48, 192, 768, 1536, 3072, 6144, 12288),
)


HOPPER = MachineSpec(
    name="Hopper II",
    compute_nodes=6392,
    node=NodeSpec(
        sockets=2,
        cores_per_socket=12,
        clock_ghz=2.1,
        memory_gb=32,
        numa_domains_per_socket=2,  # each Magny-Cours socket is two 6-core dies
        stencil_flop_efficiency=HOPPER_CAL.stencil_flop_efficiency,
        numa_bandwidth_gbs=HOPPER_CAL.numa_bandwidth_gbs,
        memcpy_bandwidth_gbs=HOPPER_CAL.memcpy_bandwidth_gbs,
        boundary_loop_efficiency=HOPPER_CAL.boundary_loop_efficiency,
    ),
    interconnect=InterconnectSpec(
        name="Cray Gemini",
        mpi_name="Cray MPT 5.1.3",
        latency_us=HOPPER_CAL.latency_us,
        bandwidth_gbs=HOPPER_CAL.bandwidth_gbs,
        per_message_cpu_us=HOPPER_CAL.per_message_cpu_us,
        overlap_fraction=HOPPER_CAL.overlap_fraction,
        eager_threshold_bytes=HOPPER_CAL.eager_threshold_bytes,
    ),
    thread_options=(1, 2, 3, 6, 12, 24),
    figure_core_counts=(24, 96, 384, 1536, 6144, 12288, 24576, 49152),
)


LENS = MachineSpec(
    name="Lens",
    compute_nodes=31,
    node=NodeSpec(
        sockets=4,
        cores_per_socket=4,
        clock_ghz=2.3,
        memory_gb=64,
        numa_domains_per_socket=1,
        stencil_flop_efficiency=LENS_CAL.stencil_flop_efficiency,
        numa_bandwidth_gbs=LENS_CAL.numa_bandwidth_gbs,
        memcpy_bandwidth_gbs=LENS_CAL.memcpy_bandwidth_gbs,
    ),
    interconnect=InterconnectSpec(
        name="DDR Infiniband",
        mpi_name="OpenMPI 1.3.3",
        latency_us=LENS_CAL.latency_us,
        bandwidth_gbs=LENS_CAL.bandwidth_gbs,
        per_message_cpu_us=LENS_CAL.per_message_cpu_us,
        overlap_fraction=LENS_CAL.overlap_fraction,
    ),
    gpu=GpuSpec(
        name="Tesla C1060",
        memory_gb=4,
        sm_count=30,
        warp_size=32,
        max_threads_per_block=512,  # §V-C: "block sizes of up to 512 elements"
        max_threads_per_sm=1024,
        max_blocks_per_sm=8,
        shared_mem_per_sm_kb=16.0,
        dp_peak_gflops=78.0,
        mem_bandwidth_gbs=LENS_CAL.gpu_mem_bandwidth_gbs,
        pcie_bandwidth_gbs=LENS_CAL.pcie_bandwidth_gbs,
        pcie_unpinned_gbs=LENS_CAL.pcie_unpinned_gbs,
        strided_copy_gbs=LENS_CAL.strided_copy_gbs,
        pcie_latency_us=LENS_CAL.pcie_latency_us,
        copy_engines=1,
        concurrent_kernels=False,
        kernel_launch_us=LENS_CAL.kernel_launch_us,
        stencil_gflops_best=LENS_CAL.gpu_stencil_gflops,
        face_kernel_gflops=LENS_CAL.face_kernel_gflops,
        thin_slab_efficiency=LENS_CAL.thin_slab_efficiency,
        register_file_size=16384,  # cc1.3: 16K registers per SM
        regs_per_thread=20,
        by_sweet_spot=11.0,  # Fig. 7: best block is 32x11
        by_sweet_amp=0.35,
        by_sweet_tol=1.2,
    ),
    gpus_per_node=1,
    thread_options=(1, 2, 4, 8, 16),
    figure_core_counts=(16, 32, 64, 128, 256, 496),
)


YONA = MachineSpec(
    name="Yona",
    compute_nodes=16,
    node=NodeSpec(
        sockets=2,
        cores_per_socket=6,
        clock_ghz=2.6,
        memory_gb=32,
        numa_domains_per_socket=1,
        stencil_flop_efficiency=YONA_CAL.stencil_flop_efficiency,
        numa_bandwidth_gbs=YONA_CAL.numa_bandwidth_gbs,
        memcpy_bandwidth_gbs=YONA_CAL.memcpy_bandwidth_gbs,
    ),
    interconnect=InterconnectSpec(
        name="QDR Infiniband",
        mpi_name="OpenMPI 1.7a1",
        latency_us=YONA_CAL.latency_us,
        bandwidth_gbs=YONA_CAL.bandwidth_gbs,
        per_message_cpu_us=YONA_CAL.per_message_cpu_us,
        overlap_fraction=YONA_CAL.overlap_fraction,
    ),
    gpu=GpuSpec(
        name="Tesla C2050",
        memory_gb=3,
        sm_count=14,
        warp_size=32,
        max_threads_per_block=1024,  # §V-C: "block sizes of up to 1024 elements"
        max_threads_per_sm=1536,
        max_blocks_per_sm=8,
        shared_mem_per_sm_kb=48.0,
        dp_peak_gflops=515.0,
        mem_bandwidth_gbs=YONA_CAL.gpu_mem_bandwidth_gbs,
        pcie_bandwidth_gbs=YONA_CAL.pcie_bandwidth_gbs,
        pcie_unpinned_gbs=YONA_CAL.pcie_unpinned_gbs,
        strided_copy_gbs=YONA_CAL.strided_copy_gbs,
        pcie_latency_us=YONA_CAL.pcie_latency_us,
        copy_engines=2,
        concurrent_kernels=False,  # see GpuSpec.concurrent_kernels
        kernel_launch_us=YONA_CAL.kernel_launch_us,
        stencil_gflops_best=YONA_CAL.gpu_stencil_gflops,
        face_kernel_gflops=YONA_CAL.face_kernel_gflops,
        thin_slab_efficiency=YONA_CAL.thin_slab_efficiency,
        register_file_size=32768,  # cc2.0: 32K registers per SM
        regs_per_thread=20,
        by_sweet_spot=8.0,  # Fig. 8: best block is 32x8
        by_sweet_amp=0.35,
        by_sweet_tol=1.2,
    ),
    gpus_per_node=1,
    thread_options=(1, 2, 3, 6, 12),
    figure_core_counts=(12, 24, 48, 96, 192),
)


# ---------------------------------------------------------------------------
# Modern scenario machines (not in the paper). See calibration.py for the
# provenance of every rate. Hyphenated names deliberately exercise the
# shared key normalization below.
# ---------------------------------------------------------------------------

#: EPYC 7763 host shared by the two Slingshot machines (NPS4: 4 dies/socket).
_MILAN_NODE = NodeSpec(
    sockets=2,
    cores_per_socket=64,
    clock_ghz=2.45,
    memory_gb=512,
    numa_domains_per_socket=4,
    flops_per_cycle=16.0,  # AVX2 FMA: 2 pipes x 4 lanes x 2 flops
    stencil_flop_efficiency=MILAN_CAL.stencil_flop_efficiency,
    numa_bandwidth_gbs=MILAN_CAL.numa_bandwidth_gbs,
    memcpy_bandwidth_gbs=MILAN_CAL.memcpy_bandwidth_gbs,
    omp_region_overhead_us=1.5,
    boundary_loop_efficiency=0.60,
)

#: Slingshot-11-class fabric: full NIC-resident progress, GPU-aware RDMA.
_SS11 = dict(
    name="Slingshot 11",
    mpi_name="Cray MPICH 8.1",
    latency_us=MILAN_CAL.latency_us,
    bandwidth_gbs=MILAN_CAL.bandwidth_gbs,
    per_message_cpu_us=MILAN_CAL.per_message_cpu_us,
    overlap_fraction=MILAN_CAL.overlap_fraction,
    eager_threshold_bytes=MILAN_CAL.eager_threshold_bytes,
    progress=ProgressModel.HARDWARE_OFFLOAD,
)

A100_SXM = MachineSpec(
    name="A100-SXM",
    compute_nodes=1024,
    node=_MILAN_NODE,
    interconnect=InterconnectSpec(**{**_SS11, "nics_per_node": 4, "gpudirect": True}),
    gpu=GpuSpec(
        name="A100-SXM4-80GB",
        memory_gb=80,
        sm_count=108,
        warp_size=32,
        max_threads_per_block=1024,
        max_threads_per_sm=2048,
        max_blocks_per_sm=32,
        shared_mem_per_sm_kb=164.0,
        dp_peak_gflops=9700.0,
        mem_bandwidth_gbs=A100_CAL.gpu_mem_bandwidth_gbs,
        pcie_bandwidth_gbs=A100_CAL.pcie_bandwidth_gbs,
        pcie_unpinned_gbs=A100_CAL.pcie_unpinned_gbs,
        strided_copy_gbs=A100_CAL.strided_copy_gbs,
        pcie_latency_us=A100_CAL.pcie_latency_us,
        copy_engines=2,
        concurrent_kernels=True,  # Ampere overlaps independent kernels for real
        kernel_launch_us=A100_CAL.kernel_launch_us,
        stencil_gflops_best=A100_CAL.gpu_stencil_gflops,
        face_kernel_gflops=A100_CAL.face_kernel_gflops,
        thin_slab_efficiency=A100_CAL.thin_slab_efficiency,
        register_file_size=65536,
        regs_per_thread=32,
        by_sweet_spot=8.0,  # far flatter than Fermi: occupancy dominates
        by_sweet_amp=0.10,
        by_sweet_tol=8.0,
        nvlink_bandwidth_gbs=A100_CAL.nvlink_bandwidth_gbs,
        nvlink_latency_us=A100_CAL.nvlink_latency_us,
    ),
    gpus_per_node=4,
    thread_options=(1, 2, 4, 8, 16, 32),
    figure_core_counts=(128, 256, 512, 1024, 2048, 4096),
)

MILAN_SS11 = MachineSpec(
    name="Milan-SS11",
    compute_nodes=1536,
    node=_MILAN_NODE,
    interconnect=InterconnectSpec(**_SS11),
    thread_options=(1, 2, 4, 8, 16, 32, 64, 128),
    figure_core_counts=(128, 512, 2048, 8192, 32768),
)

EFA_CLOUD = MachineSpec(
    name="EFA-Cloud",
    compute_nodes=256,
    node=NodeSpec(
        sockets=2,
        cores_per_socket=24,
        clock_ghz=3.0,
        memory_gb=384,
        numa_domains_per_socket=1,
        flops_per_cycle=16.0,
        stencil_flop_efficiency=EFA_CAL.stencil_flop_efficiency,
        numa_bandwidth_gbs=EFA_CAL.numa_bandwidth_gbs,
        memcpy_bandwidth_gbs=EFA_CAL.memcpy_bandwidth_gbs,
        omp_region_overhead_us=2.0,
        boundary_loop_efficiency=0.55,
    ),
    interconnect=InterconnectSpec(
        name="EFA 100G x4",
        mpi_name="OpenMPI 4.1 + libfabric",
        latency_us=EFA_CAL.latency_us,
        bandwidth_gbs=EFA_CAL.bandwidth_gbs,
        per_message_cpu_us=EFA_CAL.per_message_cpu_us,
        overlap_fraction=EFA_CAL.overlap_fraction,
        eager_threshold_bytes=EFA_CAL.eager_threshold_bytes,
        progress=ProgressModel.PROGRESS_THREAD,
        progress_overlap_fraction=EFA_CAL.progress_overlap_fraction,
        progress_host_tax=EFA_CAL.progress_host_tax,
        nics_per_node=4,
    ),
    thread_options=(1, 2, 4, 8, 12, 24, 48),
    figure_core_counts=(48, 192, 768, 3072),
)


MACHINES: Dict[str, MachineSpec] = {
    normalize_machine_name(m.name): m
    for m in (JAGUARPF, HOPPER, LENS, YONA, A100_SXM, MILAN_SS11, EFA_CLOUD)
}
# Convenience aliases.
MACHINES["jaguar"] = JAGUARPF
MACHINES["hopper"] = HOPPER
MACHINES["a100"] = A100_SXM
MACHINES["milan"] = MILAN_SS11
MACHINES["efa"] = EFA_CLOUD


def get_machine(name: str) -> MachineSpec:
    """Look up a machine by (case/space/hyphen-insensitive) name.

    Registration and lookup share :func:`normalize_machine_name`; they
    used to normalize differently (registration stripped only spaces),
    which made any hyphenated catalog name permanently unresolvable.
    """
    key = normalize_machine_name(name)
    if key not in MACHINES:
        raise KeyError(f"unknown machine {name!r}; known: {sorted(MACHINES)}")
    return MACHINES[key]


# Precompute cache-key canonical texts for the whole registry: a machine
# spec is by far the largest part of a config's cache document, and every
# sweep config references one of these four instances, so warming here
# makes the first config_key of any sweep as cheap as the millionth.
from repro.cache import warm_machine_digests  # noqa: E402  (after registry)

warm_machine_digests(set(MACHINES.values()))
