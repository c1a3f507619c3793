"""Calibrated effective-rate constants, with provenance.

Everything here is a *fitted* constant: the paper reports results, not
microbenchmark rates, so we choose effective rates that (a) are physically
plausible for the 2010-era hardware in Table II and (b) reproduce the
paper's anchor numbers and shape findings. The anchors:

* §V-E single-node Yona: GPU-resident 86 GF; GPU + bulk MPI 24 GF; GPU +
  streams MPI 35 GF; CPU-GPU overlap 82 GF (thickness 3, 2 tasks/node).
* Fig. 8: best Yona block 32x8; Fig. 7: best Lens block 32x11.
* Fig. 3: nonblocking-overlap beats bulk below ~4000 cores on JaguarPF,
  loses at >= 6000; Fig. 4: the crossover is ~an order of magnitude higher
  on Hopper II.
* Figs. 5/6: best threads/task grows with core count; 24 never best.
* Fig. 10: best hybrid > 4x best CPU-only on Yona.

The decisive physical mechanism behind the §V-E anchor set (derived in
DESIGN.md §6): the per-face boundary kernels of the GPU+MPI implementations
(§IV-F/G) run nearly serially on a one-point-thick, non-coalesced slab and
are extremely slow (sub-GF), while the hybrid implementations replace them
with CPU wall computation and one large uniform GPU kernel. The
``face_kernel_gflops`` constants encode that mechanism.

Tests in ``tests/machines/test_calibration.py`` pin each anchor with a
tolerance band so refactoring cannot silently drift the calibration.
"""

from __future__ import annotations

__all__ = [
    "JAGUARPF_CAL",
    "HOPPER_CAL",
    "LENS_CAL",
    "YONA_CAL",
    "A100_CAL",
    "MILAN_CAL",
    "EFA_CAL",
]

# ---------------------------------------------------------------------------
# CPU-side constants common to the Opteron family. The stencil is a 27-point
# fused multiply-add chain; Opterons of this era sustain a modest fraction of
# SSE2 peak on it.
# ---------------------------------------------------------------------------
#: DRAM traffic per point for the stencil sweep (streamed read + write +
#: write-allocate, with the 3-plane working set caught in cache).
STENCIL_BYTES_PER_POINT = 32.0
#: DRAM traffic per point for the Step-3 state copy (read + write + RFO).
COPY_BYTES_PER_POINT = 24.0
#: While the master thread communicates (§IV-D), its MPI-internal copies
#: contend with the worker threads for memory bandwidth; workers run at
#: this fraction of their normal rate during the communication window.
COMM_THREAD_INTERFERENCE = 0.60
#: Extra cost factor of OpenMP schedule(guided) relative to static (§IV-D).
GUIDED_SCHEDULE_OVERHEAD = 0.18
#: Efficiency of the CPU box-wall sweeps of §IV-H/I (chunky but still
#: shell-shaped loops; between full sweeps and the thin boundary shell).
WALL_COMPUTE_EFFICIENCY = 0.70


class _Cal(dict):
    """Typed-ish bag of per-machine calibration constants."""

    __getattr__ = dict.__getitem__


JAGUARPF_CAL = _Cal(
    # Istanbul, DDR2-800: ~10.6 GB/s/socket STREAM.
    numa_bandwidth_gbs=10.6,
    stencil_flop_efficiency=0.21,  # ~2.2 GF/core on Eq. 2
    memcpy_bandwidth_gbs=4.5,
    # SeaStar2+: high latency relative to Gemini; modest injection bandwidth.
    latency_us=7.0,
    bandwidth_gbs=1.7,
    per_message_cpu_us=1.6,
    # Portals RDMA moves rendezvous payloads without host attention once
    # the handshake completes, so a large fraction overlaps...
    overlap_fraction=0.70,
    # ...and SeaStar's eager path extends to fairly large messages, which
    # is what ends the overlap win as subdomains shrink (Fig. 3): eager
    # traffic is copied through MPI-internal buffers and cannot overlap.
    eager_threshold_bytes=24576,
)

HOPPER_CAL = _Cal(
    # Magny-Cours, DDR3-1333: ~12.5 GB/s per 6-core die.
    numa_bandwidth_gbs=12.5,
    stencil_flop_efficiency=0.21,
    memcpy_bandwidth_gbs=5.0,
    boundary_loop_efficiency=0.60,  # Magny-Cours prefetch handles the shell loops better
    # Gemini: much lower latency, much higher bandwidth than SeaStar2+.
    latency_us=1.6,
    bandwidth_gbs=3.0,
    per_message_cpu_us=0.9,
    # Gemini BTE offloads rendezvous transfers well...
    overlap_fraction=0.90,
    # ...but its SMSG eager path is small, so messages stay rendezvous (and
    # overlappable) to much higher core counts than on SeaStar — the
    # order-of-magnitude-later crossover of Fig. 4.
    eager_threshold_bytes=2048,
)

LENS_CAL = _Cal(
    # Barcelona, DDR2-667: the oldest, slowest CPUs of the four machines.
    numa_bandwidth_gbs=6.4,
    stencil_flop_efficiency=0.13,  # Barcelona SSE + older PGI codegen
    memcpy_bandwidth_gbs=3.2,
    # DDR InfiniBand through OpenMPI 1.3.
    latency_us=5.0,
    bandwidth_gbs=1.4,
    per_message_cpu_us=2.0,
    overlap_fraction=0.25,
    # Tesla C1060 (cc1.3): DP units are 1/8 of SP; strict coalescing rules.
    gpu_stencil_gflops=22.0,  # best-block rate of the resident kernel
    gpu_mem_bandwidth_gbs=73.0,  # effective streaming (102 nominal)
    face_kernel_gflops=0.22,  # x-perpendicular boundary-face kernels
    thin_slab_efficiency=0.30,  # thin uniform slabs (no cache, but no fused copies)
    pcie_bandwidth_gbs=1.5,  # pinned/async, older bus
    pcie_unpinned_gbs=0.6,  # synchronous pageable copies (§IV-F path)
    strided_copy_gbs=1.2,  # device-side x/y face pack kernels
    pcie_latency_us=20.0,
    kernel_launch_us=10.0,
)

YONA_CAL = _Cal(
    # Istanbul again on the host side.
    numa_bandwidth_gbs=10.6,
    stencil_flop_efficiency=0.20,  # slightly below JaguarPF (OpenMPI + prerelease stack)
    memcpy_bandwidth_gbs=4.5,
    # QDR InfiniBand, OpenMPI 1.7a1.
    latency_us=2.5,
    bandwidth_gbs=3.0,
    per_message_cpu_us=1.2,
    overlap_fraction=0.30,
    # Tesla C2050 (Fermi, cc2.0): calibrated so the resident kernel delivers
    # the paper's 86 GF at the 32x8 block (Fig. 8) — 16.7% of the 515 GF
    # DP peak, a typical Fermi DP stencil fraction with ECC enabled.
    gpu_stencil_gflops=86.0,
    gpu_mem_bandwidth_gbs=105.0,  # ECC-on effective (144 nominal)
    face_kernel_gflops=0.42,  # x-perpendicular boundary-face kernels
    thin_slab_efficiency=0.16,  # thin uniform slabs (block boundary layer)
    pcie_bandwidth_gbs=4.0,  # the "faster PCIe bus" of §III (pinned/async)
    pcie_unpinned_gbs=0.55,  # synchronous pageable copies (§IV-F path)
    strided_copy_gbs=2.0,  # device-side x/y face pack kernels
    pcie_latency_us=10.0,
    kernel_launch_us=7.0,
)

# ---------------------------------------------------------------------------
# Modern machines (ROADMAP item 3: "would the paper's conclusions flip on an
# A100-class node?").  These are *projections*, not paper anchors: rates come
# from vendor datasheets and public benchmark folklore for the 2020-23
# hardware generation, chosen with the same conventions as the four paper
# machines (effective streaming rates, not nominal peaks).  The progress
# model and GPU-aware comm fields are what the scenario study varies.
# ---------------------------------------------------------------------------

A100_CAL = _Cal(
    # EPYC 7763 host: DDR4-3200, 8 channels/socket, NPS4 (~42 GB/s/die).
    numa_bandwidth_gbs=40.0,
    stencil_flop_efficiency=0.08,  # memory-bound on AVX2 FMA peaks
    memcpy_bandwidth_gbs=25.0,
    # Slingshot-11 class NIC: 200 Gb/s, sub-2us, full hardware offload.
    latency_us=1.8,
    bandwidth_gbs=23.0,
    per_message_cpu_us=0.2,
    overlap_fraction=0.90,  # manual-poll counterfactual; HW offload ignores it
    eager_threshold_bytes=4096,
    # A100-SXM4: 1555 GB/s nominal HBM2e, ~1400 effective with ECC.
    gpu_stencil_gflops=1050.0,
    gpu_mem_bandwidth_gbs=1400.0,
    face_kernel_gflops=35.0,  # thin kernels no longer fall off a cliff
    thin_slab_efficiency=0.30,
    pcie_bandwidth_gbs=22.0,  # PCIe4 x16 pinned/async
    pcie_unpinned_gbs=6.0,
    strided_copy_gbs=300.0,  # device-side pack kernels ride HBM
    pcie_latency_us=5.0,
    kernel_launch_us=4.0,
    # NVLink3 through NVSwitch: ~600 GB/s/GPU nominal; effective fair-share
    # per node modeled as one 250 GB/s link all peer copies contend on.
    nvlink_bandwidth_gbs=250.0,
    nvlink_latency_us=1.8,
)

MILAN_CAL = _Cal(
    # Same EPYC 7763 host as the A100 node, CPU-only partition.
    numa_bandwidth_gbs=40.0,
    stencil_flop_efficiency=0.08,
    memcpy_bandwidth_gbs=25.0,
    # Slingshot-11 again.
    latency_us=1.8,
    bandwidth_gbs=23.0,
    per_message_cpu_us=0.2,
    overlap_fraction=0.90,
    eager_threshold_bytes=4096,
)

EFA_CAL = _Cal(
    # Cloud Xeon host (Cascade Lake-class): DDR4-2933, 6 channels/socket.
    numa_bandwidth_gbs=30.0,
    stencil_flop_efficiency=0.07,
    memcpy_bandwidth_gbs=18.0,
    # EFA-class NIC: SRD over commodity ethernet — high latency, decent
    # bandwidth, progress driven by a libfabric software engine.
    latency_us=18.0,
    bandwidth_gbs=12.0,
    per_message_cpu_us=0.5,
    overlap_fraction=0.30,  # manual-poll counterfactual
    eager_threshold_bytes=8192,
    progress_overlap_fraction=0.90,
    progress_host_tax=0.08,  # the polling thread steals real cycles
)
