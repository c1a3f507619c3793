"""Microbenchmarks of the functional NumPy kernels.

These are the only pieces whose *Python* wall-clock matters (the machine
performance in the figures is simulated). The production sweep runs on the
separable engine — three 1-D 3-tap passes through a scratch arena — and
must sustain tens of millions of points per second; the dense 27-point
reference is benchmarked alongside it so the speedup stays visible, and
``test_bench_advance_throughput_floor`` asserts the separable path never
regresses below the acceptance floor (2.5x the dense seed). The 256^3
acceptance measurement lives in ``tests/perf/test_kernel_throughput.py``.
"""

import time

import numpy as np

from repro.core.config import RunConfig
from repro.core.data import RankData
from repro.decomp.partition import Subdomain
from repro.machines import LENS
from repro.stencil.arena import ScratchArena
from repro.stencil.coefficients import tensor_product_coefficients
from repro.stencil.grid import allocate_field
from repro.stencil.kernels import (
    advance,
    apply_stencil,
    apply_stencil_block,
    apply_stencil_dense,
    fill_periodic_halo,
    interior,
)

N = 64
COEFFS = tensor_product_coefficients((1.0, 0.9, 0.8), 1.0)

# The dense seed measured ~5.6 Mpts/s at scale on the reference container;
# the PR gate is 2.5x that. At N=64 the separable path actually runs far
# faster (caches), so this floor only catches real regressions.
FLOOR_MPTS = 14.0


def _field(n=N):
    rng = np.random.default_rng(0)
    u = allocate_field((n, n, n))
    interior(u)[...] = rng.random((n, n, n))
    return u


def test_bench_apply_stencil(benchmark):
    """The production (separable) sweep, arena-warm."""
    u = _field()
    fill_periodic_halo(u)
    out = np.zeros_like(u)
    arena = ScratchArena()
    apply_stencil(u, COEFFS, out, arena=arena)  # warm the arena
    benchmark(apply_stencil, u, COEFFS, out, arena=arena)


def test_bench_apply_stencil_dense(benchmark):
    """The dense 27-point reference, for the speedup comparison."""
    u = _field()
    fill_periodic_halo(u)
    out = np.zeros_like(u)
    benchmark(apply_stencil_dense, u, COEFFS, out)


def test_bench_halo_fill(benchmark):
    u = _field()
    benchmark(fill_periodic_halo, u)


def test_bench_full_step(benchmark):
    u = _field()
    scratch = np.zeros_like(u)
    arena = ScratchArena()
    advance(u, COEFFS, steps=1, scratch=scratch, arena=arena)  # warm
    benchmark(advance, u, COEFFS, 1, scratch, arena=arena)


def test_bench_advance_throughput_floor():
    """Gate the steady-state step at the acceptance floor, best of 5."""
    u = _field()
    scratch = np.zeros_like(u)
    arena = ScratchArena()
    advance(u, COEFFS, steps=1, scratch=scratch, arena=arena)  # warm
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        advance(u, COEFFS, 1, scratch, arena=arena)
        best = min(best, time.perf_counter() - t0)
    mpts = N**3 / best / 1e6
    assert mpts >= FLOOR_MPTS, (
        f"separable advance ran at {mpts:.1f} Mpts/s, below the "
        f"{FLOOR_MPTS:.0f} Mpts/s floor (2.5x the dense seed)"
    )


def test_bench_overlap_tiling(benchmark):
    """One nonblocking step's blocks (three z-thirds + six thickness-1
    slabs) on a 48^3 rank: the partitioned shapes the overlap programs
    sweep, reported in Mpts/s for comparison with the whole-field apply."""
    rank_shape = (48, 48, 48)
    cfg = RunConfig(machine=LENS, implementation="nonblocking", cores=16,
                    domain=rank_shape)
    rank = RankData(cfg, Subdomain(0, (0, 0, 0), (0, 0, 0), rank_shape))
    blocks = rank.core_thirds() + rank.boundary_slabs()
    u = _field(rank_shape[0])
    fill_periodic_halo(u)
    out = np.zeros_like(u)
    arena = ScratchArena()

    def tiled():
        for lo, hi in blocks:
            apply_stencil_block(u, COEFFS, out, lo, hi, arena=arena)

    tiled()  # warm the arena
    benchmark(tiled)
    if getattr(benchmark, "stats", None):  # None under --benchmark-disable
        mpts = rank_shape[0] ** 3 / benchmark.stats.stats.min / 1e6
        benchmark.extra_info["mpts_per_s"] = round(mpts, 1)
