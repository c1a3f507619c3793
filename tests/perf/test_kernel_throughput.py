"""PR acceptance gate: the separable engine's measured throughput.

The issue for this PR requires ``advance`` at 256^3 to run at >= 2.5x the
seed's dense throughput (~5.6 Mpts/s on the reference container, i.e. a
floor of 14 Mpts/s) while agreeing with the dense 27-point kernel within
``rtol=1e-12``. This module is the test that pins both halves of that
claim; ``benchmarks/bench_kernels.py`` gates the same floor at 64^3.

Timing tests are inherently machine-sensitive; the floor here is set at
half the acceptance threshold observed on the reference container (which
measures ~40 Mpts/s, nearly 3x headroom over the 14 Mpts/s gate) so that
ordinary scheduling noise cannot flake the suite while a real regression
back toward the dense path (~6 Mpts/s) still fails loudly.
"""

import time

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.data import RankData
from repro.decomp.partition import Subdomain
from repro.machines import LENS
from repro.stencil.arena import ScratchArena
from repro.stencil.coefficients import max_stable_nu, tensor_product_coefficients
from repro.stencil.grid import allocate_field
from repro.stencil.kernels import (
    advance,
    apply_stencil,
    apply_stencil_block,
    apply_stencil_dense,
    fill_periodic_halo,
    interior,
)

N = 256
VELOCITY = (0.9, -0.6, 0.4)

# The seed's dense path measured ~5.6 Mpts/s at 256^3 on the reference
# container; the acceptance criterion is 2.5x that. We assert the full
# 2.5x gate but keep a generous margin below the ~40 Mpts/s actually
# measured so timing noise cannot flake CI.
FLOOR_MPTS = 14.0


def _field(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = allocate_field((n, n, n))
    interior(u)[...] = rng.random((n, n, n))
    fill_periodic_halo(u)
    return u


@pytest.fixture(scope="module")
def coeffs():
    return tensor_product_coefficients(VELOCITY, 0.8 * max_stable_nu(VELOCITY))


class TestAcceptance256:
    def test_separable_throughput_floor(self, coeffs):
        """``advance`` at 256^3 sustains >= 2.5x the seed's throughput."""
        assert coeffs.is_separable
        u = _field(N)
        arena = ScratchArena()
        scratch = np.zeros_like(u)
        # Warm the arena and the page cache, then time the steady state.
        advance(u.copy(), coeffs, steps=1, scratch=scratch, arena=arena)
        steps = 3
        t0 = time.perf_counter()
        advance(u.copy(), coeffs, steps=steps, scratch=scratch, arena=arena)
        elapsed = time.perf_counter() - t0
        mpts = steps * N**3 / elapsed / 1e6
        assert mpts >= FLOOR_MPTS, (
            f"separable advance at {N}^3 ran at {mpts:.1f} Mpts/s, below the "
            f"{FLOOR_MPTS:.0f} Mpts/s acceptance floor (2.5x the seed)"
        )

    def test_separable_agrees_with_dense_at_256(self, coeffs):
        """The speed does not come at the cost of accuracy: rtol=1e-12."""
        u = _field(N, seed=1)
        sep = apply_stencil(u, coeffs, method="separable")
        dense = apply_stencil_dense(u, coeffs)
        np.testing.assert_allclose(
            interior(sep), interior(dense), rtol=1e-12, atol=1e-14
        )

    def test_steady_state_allocates_nothing(self, coeffs):
        """At 256^3 the arena stops allocating after the first step."""
        u = _field(N, seed=2)
        arena = ScratchArena()
        scratch = np.zeros_like(u)
        advance(u, coeffs, steps=1, scratch=scratch, arena=arena)
        warm = arena.misses
        advance(u, coeffs, steps=2, scratch=scratch, arena=arena)
        assert arena.misses == warm


# A partitioned step (nonblocking: three z-thirds + six thickness-1 slabs)
# must not fall far behind one whole-interior sweep of the same rank.
# Sweeping blocks through strided full-field scratch ran it at 0.34x;
# compact per-block scratch with the longest axis innermost ran it at
# 0.89x, and flat per-block sweeps (whole field read in place) at 0.86x
# (2-vCPU Xeon guest, docs/MODEL.md §5).
RANK = (48, 48, 48)
FLOOR_TILED_RATIO = 0.6


def _best_of_interleaved(fns, k: int = 9, reps: int = 5):
    """Best per-call time of each of ``fns``, timed in alternating rounds."""
    best = [float("inf")] * len(fns)
    for _ in range(k):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            best[i] = min(best[i], (time.perf_counter() - t0) / reps)
    return best


class TestBlockShapes:
    def test_nonblocking_tiling_keeps_whole_field_throughput(self, coeffs):
        cfg = RunConfig(machine=LENS, implementation="nonblocking", cores=16,
                        domain=RANK)
        rank = RankData(cfg, Subdomain(0, (0, 0, 0), (0, 0, 0), RANK))
        blocks = rank.core_thirds() + rank.boundary_slabs()
        u = _field(RANK[0], seed=3)
        out = np.zeros_like(u)
        arena = ScratchArena()

        def whole():
            apply_stencil_block(u, coeffs, out, (0, 0, 0), RANK, arena=arena)

        def tiled():
            for lo, hi in blocks:
                apply_stencil_block(u, coeffs, out, lo, hi, arena=arena)

        whole()
        tiled()
        t_whole, t_tiled = _best_of_interleaved([whole, tiled])
        ratio = t_whole / t_tiled
        assert ratio >= FLOOR_TILED_RATIO, (
            f"nonblocking tiling ran at {ratio:.2f}x the whole-field "
            f"throughput, below the {FLOOR_TILED_RATIO}x floor"
        )
