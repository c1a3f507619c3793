"""Microbenchmarks of the functional NumPy kernels.

These are the only pieces whose *Python* wall-clock matters (the machine
performance in the figures is simulated). The production sweep runs on the
separable engine — three 1-D 3-tap passes through a scratch arena — and
must sustain tens of millions of points per second; the dense 27-point
reference is benchmarked alongside it so the speedup stays visible, and
``test_bench_advance_throughput_floor`` asserts the separable path never
regresses below the acceptance floor (2.5x the dense seed). The 256^3
acceptance measurement lives in ``tests/perf/test_kernel_throughput.py``.

Run as a script, it prints the per-block tables of ``docs/MODEL.md`` §5:
µs per call and Mpts/s for the block shapes the implementations sweep on
a 48^3 rank and for one nonblocking step, best of 15 rounds of 5 calls,
at the paper's ν (the default velocity's x axis is then a unit tap) and
at 0.8 of it. ``--baseline path/to/kernels.py`` loads a second copy of the kernel
module (say, from a checkout of an earlier commit) and times it in the
same process, rounds alternating, so both columns share the host load::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --baseline ../old/src/repro/stencil/kernels.py
"""

import argparse
import importlib.util
import os
import sys
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
    SCRATCH_BUDGET,
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


def test_bench_96_cube_scratch_within_budget():
    """A 96^3 advance sweeps in chunks: three leases of at most the scratch
    budget (about 3 MB), not three 7.5 MB padded fields. Deterministic, no
    timing."""
    u = _field(96)
    arena = ScratchArena()
    advance(u, COEFFS, steps=1, arena=arena)
    assert len(arena) <= 3
    assert arena.nbytes <= 3 * 8 * SCRATCH_BUDGET, (
        f"a 96^3 advance left {arena.nbytes / 1e6:.2f} MB in its arena"
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


# -- the MODEL.md §5 per-block table ------------------------------------------

RANK = (48, 48, 48)
#: (x×y×z, where it is swept, lo, hi) on a 48^3 rank
TABLE_BLOCKS = (
    ("48×48×48", "bulk, whole interior", (0, 0, 0), (48, 48, 48)),
    ("46×46×46", "gpu_streams core", (1, 1, 1), (47, 47, 47)),
    ("46×46×15", "nonblocking z-third", (1, 1, 1), (47, 47, 16)),
    ("1×48×48", "x slab", (0, 0, 0), (1, 48, 48)),
    ("46×1×48", "y slab", (1, 0, 0), (47, 1, 48)),
    ("46×46×1", "z slab", (1, 1, 0), (47, 47, 1)),
)


def _nonblocking_blocks():
    cfg = RunConfig(machine=LENS, implementation="nonblocking", cores=16,
                    domain=RANK)
    rank = RankData(cfg, Subdomain(0, (0, 0, 0), (0, 0, 0), RANK))
    return rank.core_thirds() + rank.boundary_slabs()


def _load_module(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _baseline_engine(path: str):
    """``(apply_stencil_block, arena)`` of another ``kernels.py``.

    The arena comes from the ``arena.py`` beside it when there is one:
    kernels from before flat leases ask for shaped views
    (``arena.get(name, (n,))``), which only their own arena serves.
    """
    kernels = _load_module("baseline_kernels", path)
    sibling = os.path.join(os.path.dirname(path), "arena.py")
    arena_type = (_load_module("baseline_arena", sibling).ScratchArena
                  if os.path.exists(sibling) else ScratchArena)
    return kernels.apply_stencil_block, arena_type()


def block_table(coeffs, baseline=None, rounds: int = 15, calls: int = 5):
    """Rows ``(label, where, points, {engine: best µs per call})``."""
    engines = {"this": (apply_stencil_block, ScratchArena())}
    if baseline is not None:
        engines["baseline"] = _baseline_engine(baseline)
    u = _field(RANK[0])
    fill_periodic_halo(u)
    out = np.zeros_like(u)
    rows = [(label, where, [(lo, hi)]) for label, where, lo, hi in TABLE_BLOCKS]
    rows.append(("3 z-thirds + 6 slabs", "one nonblocking step",
                 _nonblocking_blocks()))
    table = []
    for label, where, blocks in rows:
        best = dict.fromkeys(engines, float("inf"))
        for _ in range(rounds):
            for name, (apply, arena) in engines.items():
                for lo, hi in blocks:  # warm this round's leases
                    apply(u, coeffs, out, lo, hi, arena=arena)
                t0 = time.perf_counter()
                for _ in range(calls):
                    for lo, hi in blocks:
                        apply(u, coeffs, out, lo, hi, arena=arena)
                best[name] = min(best[name], (time.perf_counter() - t0) / calls)
        points = sum(
            (h[0] - l[0]) * (h[1] - l[1]) * (h[2] - l[2]) for l, h in blocks
        )
        table.append((label, where, points, {k: v * 1e6 for k, v in best.items()}))
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="another kernels.py to time beside this one")
    args = parser.parse_args(argv)
    for nu_fraction in (1.0, 0.8):
        cfg = RunConfig(machine=LENS, implementation="bulk", cores=16,
                        nu_fraction=nu_fraction)
        coeffs = tensor_product_coefficients(cfg.velocity, cfg.nu)
        table = block_table(coeffs, args.baseline)
        engines = list(table[0][3])
        head = ["block (x×y×z)", "where"]
        for name in engines:
            head += [f"{name} µs", f"{name} Mpts/s"]
        if args.baseline:
            head.append("speedup")
        print(f"\nvelocity {cfg.velocity}, nu = {nu_fraction} x stable maximum\n")
        print("| " + " | ".join(head) + " |")
        print("|" + "---|" * len(head))
        for label, where, points, us in table:
            cells = [label, where]
            for name in engines:
                cells += [f"{us[name]:.0f}", f"{points / us[name]:.1f}"]
            if args.baseline:
                cells.append(f"{us['baseline'] / us['this']:.2f}×")
            print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
