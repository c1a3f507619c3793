"""GPU thread-block performance model (paper §V-C, Figs. 7/8).

The GPU-resident kernel partitions the domain in x and y; each 2-D thread
block owns an xy tile plus halo and iterates over z, staging an xy slab in
shared memory per iteration ([6] in the paper). Block size affects the rate
through five mechanisms, all modeled here:

1. **coalescing** — global loads are fastest when the x extent covers whole
   warps; x = 16 (half warp) pays a penalty, which is why the paper only
   measures x in {16, 32, 64, 128} and finds 32 best;
2. **warp quantization** — threads are issued in warps of 32, so a block of
   ``bx*by`` threads wastes the tail of its last warp;
3. **halo amplification** — the slab staged to shared memory is
   ``(bx+2)(by+2)`` for ``bx*by`` useful results, so small tiles move more
   bytes per point;
4. **occupancy** — resident blocks per SM are limited by shared memory,
   thread slots, block slots and registers; low occupancy cannot hide
   memory latency (diminishing returns, modeled as occ^0.35);
5. **remainder waste** — blocks sticking past the 420-point extent do no
   useful work.

On top of these sits a calibrated per-device sweet-spot bump over the y
extent (``by_sweet_spot``): the measured optima (32x11 on C1060, 32x8 on
C2050) reflect register/scheduler effects the occupancy arithmetic cannot
reproduce from first principles; see calibration notes in DESIGN.md.

Rates are normalized so the best admissible block delivers the device's
calibrated ``stencil_gflops_best``.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from repro.machines.spec import GpuSpec
from repro.stencil.coefficients import FLOPS_PER_POINT

__all__ = [
    "admissible_blocks",
    "block_efficiency",
    "best_block",
    "stencil_kernel_time",
    "kernel_rate_gflops",
]

#: x extents the paper measures: at least a half warp, power-of-two spacing.
X_CANDIDATES: Tuple[int, ...] = (16, 32, 64, 128)

_ITEMSIZE = 8


def admissible_blocks(gpu: GpuSpec) -> Iterator[Tuple[int, int]]:
    """All (bx, by) the paper's sweep considers for this device.

    x in {16, 32, 64, 128}; y from 1 up to the device's max block size
    (512 threads on C1060, 1024 on C2050).
    """
    for bx in X_CANDIDATES:
        for by in range(1, gpu.max_threads_per_block // bx + 1):
            yield (bx, by)


#: Per-doubling penalty for x extents beyond one warp: wider rows raise
#: per-thread latency exposure and halve block-level parallelism in x, and
#: the paper finds x = 32 (one warp) best throughout (§V-C).
WIDE_BLOCK_PENALTY = 0.85


def _coalesce_factor(gpu: GpuSpec, bx: int) -> float:
    """Memory-transaction efficiency of the x extent."""
    if bx % gpu.warp_size == 0:
        return WIDE_BLOCK_PENALTY ** math.log2(bx / gpu.warp_size)
    if bx % (gpu.warp_size // 2) == 0:
        return 0.80  # half-warp transactions
    return 0.45


def _occupancy(gpu: GpuSpec, bx: int, by: int) -> float:
    """Fraction of the SM's warp slots occupied by resident blocks."""
    threads = bx * by
    warps_per_block = math.ceil(threads / gpu.warp_size)
    shared_per_block = (bx + 2) * (by + 2) * _ITEMSIZE
    by_shared = int(gpu.shared_mem_per_sm_kb * 1024 // shared_per_block)
    by_threads = gpu.max_threads_per_sm // threads
    by_regs = gpu.register_file_size // max(1, threads * gpu.regs_per_thread)
    blocks = max(0, min(gpu.max_blocks_per_sm, by_shared, by_threads, by_regs))
    if blocks == 0:
        return 0.0
    max_warps = gpu.max_threads_per_sm // gpu.warp_size
    return min(1.0, blocks * warps_per_block / max_warps)


def _sweet_spot(gpu: GpuSpec, by: int) -> float:
    """Calibrated per-device scheduler/register bump over the y extent."""
    return 1.0 + gpu.by_sweet_amp * math.exp(
        -((by - gpu.by_sweet_spot) ** 2) / (2.0 * gpu.by_sweet_tol**2)
    )


def _shape_free(gpu: GpuSpec, bx: int, by: int) -> float:
    """``coal * warp * halo * occ**0.35``: the factors of a block's
    efficiency that no tile extent enters (0.0 at zero occupancy)."""
    occ = _occupancy(gpu, bx, by)
    if occ == 0.0:
        return 0.0
    threads = bx * by
    warp_util = threads / (math.ceil(threads / gpu.warp_size) * gpu.warp_size)
    halo_util = threads / ((bx + 2) * (by + 2))
    return _coalesce_factor(gpu, bx) * warp_util * halo_util * (occ**0.35)


def block_efficiency(
    gpu: GpuSpec, block: Tuple[int, int], shape: Sequence[int] = (420, 420, 420)
) -> float:
    """Unnormalized efficiency of a (bx, by) block on an (nx, ny, nz) tile.

    Zero for inadmissible blocks (over the thread limit or zero occupancy).
    """
    bx, by = block
    nx, ny = int(shape[0]), int(shape[1])
    if bx * by > gpu.max_threads_per_block or bx < 1 or by < 1:
        return 0.0
    head = _shape_free(gpu, bx, by)
    if head == 0.0:
        return 0.0
    cover_x = nx / (math.ceil(nx / bx) * bx)
    cover_y = ny / (math.ceil(ny / by) * by)
    return head * cover_x * cover_y * _sweet_spot(gpu, by)


@lru_cache(maxsize=64)
def _block_table(gpu: GpuSpec) -> Tuple[array, array, array, array]:
    """Parallel ``bx``, ``by``, ``_shape_free`` and ``_sweet_spot`` arrays
    over the scoring admissible blocks, in sweep order.

    Built once per device: only the coverage factors depend on the tile.
    Blocks with zero occupancy are left out (0.0 never wins the strict
    argmax). Finishing each product left to right as in
    :func:`block_efficiency` keeps every efficiency bit for bit. Arrays
    hold the doubles exactly at a fifth of the memory of row tuples.
    """
    bxs, bys, heads, sweets = array("i"), array("i"), array("d"), array("d")
    for bx, by in admissible_blocks(gpu):
        head = _shape_free(gpu, bx, by)
        if head != 0.0:
            bxs.append(bx)
            bys.append(by)
            heads.append(head)
            sweets.append(_sweet_spot(gpu, by))
    return bxs, bys, heads, sweets


@lru_cache(maxsize=256)
def _best_block_cached(gpu: GpuSpec, shape: Tuple[int, int, int]) -> Tuple[Tuple[int, int], float]:
    nx, ny = shape[0], shape[1]
    best, best_eff = None, 0.0
    for bx, by, head, sweet in zip(*_block_table(gpu)):
        cover_x = nx / (math.ceil(nx / bx) * bx)
        cover_y = ny / (math.ceil(ny / by) * by)
        eff = head * cover_x * cover_y * sweet
        if eff > best_eff:
            best, best_eff = (bx, by), eff
    if best is None:
        raise ValueError(f"no admissible block for {gpu.name}")
    return best, best_eff


def best_block(
    gpu: GpuSpec, shape: Sequence[int] = (420, 420, 420)
) -> Tuple[int, int]:
    """The best (bx, by) over the paper's sweep for this device and tile."""
    shape3 = tuple(int(s) for s in shape)
    if len(shape3) != 3:
        raise ValueError(f"shape must be 3-D, got {shape}")
    return _best_block_cached(gpu, shape3)[0]


def kernel_rate_gflops(
    gpu: GpuSpec,
    block: Tuple[int, int],
    shape: Sequence[int] = (420, 420, 420),
) -> float:
    """Delivered GF of the resident stencil kernel at ``block``.

    Normalized so the best block on the full 420^3 domain delivers the
    calibrated ``stencil_gflops_best`` (86 GF on the C2050, Fig. 8).
    """
    shape3 = tuple(int(s) for s in shape)
    _, ref_eff = _best_block_cached(gpu, (420, 420, 420))
    eff = block_efficiency(gpu, block, shape3)
    if eff <= 0.0:
        raise ValueError(f"block {block} not admissible on {gpu.name}")
    flop_rate = gpu.stencil_gflops_best * eff / ref_eff
    # Memory-bandwidth ceiling: the slab-staged kernel streams ~20 B/point
    # of global traffic (read + write + halo reload) at best.
    mem_rate = gpu.mem_bandwidth_gbs * (eff / ref_eff) / 20.0 * FLOPS_PER_POINT
    return min(flop_rate, mem_rate)


@lru_cache(maxsize=1024)
def _kernel_rate(
    gpu: GpuSpec, block: Tuple[int, int] | None, shape: Tuple[int, ...]
) -> float:
    """Delivered flop/s of the stencil kernel (``block`` None: the tile's
    best block), priced once per device, block and tile shape."""
    if block is None:
        block = best_block(gpu, shape)
    return kernel_rate_gflops(gpu, block, shape) * 1e9


def stencil_kernel_time(
    gpu: GpuSpec,
    points: int,
    block: Tuple[int, int] | None = None,
    shape: Sequence[int] = (420, 420, 420),
) -> float:
    """Seconds for the resident/interior stencil kernel over ``points``."""
    if points <= 0:
        return 0.0
    return points * FLOPS_PER_POINT / _kernel_rate(gpu, block, tuple(shape))
