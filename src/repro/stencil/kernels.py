"""Vectorized stencil kernels: separable 1-D sweeps + dense 27-point reference.

These are the *functional* kernels: they operate on NumPy arrays and produce
the same numbers the paper's Fortran kernels produce. (Performance of the
simulated machines comes from the analytic cost models in
:mod:`repro.machines` and :mod:`repro.simgpu`, not from timing this Python.)

All kernels follow the halo convention of :mod:`repro.stencil.grid`: fields
carry a one-point halo, the interior is ``field[1:-1, 1:-1, 1:-1]``.

The paper's three algorithmic steps per time step (§IV-A) map to:

1. copy periodic boundaries — :func:`fill_periodic_halo`
2. compute the new state (Equation 2) — :func:`apply_stencil`
3. copy the new state to the current state — realized as a buffer flip
   (:func:`advance` returns the buffer holding the newest state instead of
   copying it back, like the GPU-resident implementation flips kernel
   arguments)

Execution paths
---------------

Equation 2 is the tensor product of three 1-D Lax-Wendroff operators
(``a_{ijk} = A_i(c_x) A_j(c_y) A_k(c_z)``, paper Table I), so whenever the
coefficients carry factor triples (:attr:`StencilCoefficients.factors`) the
kernels run the **separable engine**: an x sweep, a y sweep, then a z sweep,
each a 3-tap 1-D stencil applied with in-place ufuncs through a
:class:`~repro.stencil.arena.ScratchArena`, performing zero array
allocations in steady state. That turns 27 strided reads plus 27 temporary
allocations per point into 9 contiguous-ish passes, a >3x throughput win at
256^3 (see ``benchmarks/bench_kernels.py`` and
``tests/perf/test_kernel_throughput.py``).

The **dense 27-point kernel** (:func:`apply_stencil_dense`,
:func:`apply_stencil_block_dense`) is retained as the cross-checked
reference and as the execution path for non-separable coefficient tensors
(``coeffs.factors is None``).

Sub-box index algebra: a block ``[lo, hi)`` of extents ``(bx, by, bz)``
(interior coordinates ``lo=(x0,y0,z0)``, ``hi=(x1,y1,z1)``; haloed-array
coordinates are shifted by +1) reads ``u[x0:x1+2, y0:y1+2, z0:z1+2]``, the
block plus its one-point halo, which is always in bounds for a block inside
the interior. That box is copied once into compact scratch ``S`` of shape
``(bx+2, by+2, bz+2)`` and the sweeps shrink it one axis at a time, each
needing intermediate values one layer beyond the block in the dimensions
not yet swept:

* x sweep: ``S -> t1`` of shape ``(bx, by+2, bz+2)``;
* y sweep: ``t1 -> t2`` of shape ``(bx, by, bz+2)``;
* z sweep: ``t2 -> r`` of shape ``(bx, by, bz)``, copied into ``out`` on
  the block.

In every sweep, tap ``d`` (0, 1, 2 for offsets -1, 0, +1) reads the source
at index ``d`` to ``d + n`` along the swept axis, ``n`` the destination's
extent there. ``S``/``t2`` and ``t1``/``r`` are ping-pong leases of two
arena buffers, so scratch never exceeds three haloed fields.

Memory-order rule: all scratch of one block is stored with its axes
ordered by block extent, longest innermost (ties keep x, y, z order, so a
cube stays C-ordered). A thin slab or a z-third is then swept with long
contiguous inner loops instead of one short NumPy loop per row.

Every point still sees the identical ufunc sequence whatever the block
bounds and the scratch memory order: the first nonzero tap multiplied into
the accumulator, each further tap multiplied into the tap buffer and
added, zero taps skipped. The block path is therefore *bit-identical* to
the full-field path (the property tests assert this, and
``tests/stencil/test_kernel_digests.py`` pins the fields across commits),
which preserves the repo's cross-implementation bit-exactness oracle.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.stencil.arena import ScratchArena, default_arena
from repro.stencil.coefficients import StencilCoefficients

__all__ = [
    "interior",
    "fill_periodic_halo",
    "apply_stencil",
    "apply_stencil_dense",
    "apply_stencil_block",
    "apply_stencil_block_dense",
    "advance",
]


def interior(field: np.ndarray) -> np.ndarray:
    """View of the non-halo interior of a haloed field."""
    return field[1:-1, 1:-1, 1:-1]


def fill_periodic_halo(field: np.ndarray, dims: Sequence[int] = (0, 1, 2)) -> None:
    """Fill halo planes from the periodic opposite boundary, in place.

    ``dims`` selects which dimensions to wrap (all three by default). The
    dimensions are applied in order; applying x then y then z propagates
    edge and corner values exactly like the paper's serialized exchange
    (x corners sent to y neighbors, x and y to z — §IV-B).
    """
    for d in dims:
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        src_lo = [slice(None)] * 3
        src_hi = [slice(None)] * 3
        lo[d] = 0
        src_lo[d] = -2  # last interior plane
        hi[d] = -1
        src_hi[d] = 1  # first interior plane
        field[tuple(lo)] = field[tuple(src_lo)]
        field[tuple(hi)] = field[tuple(src_hi)]


# ---------------------------------------------------------------------------
# Separable engine
# ---------------------------------------------------------------------------


def _sweep(
    src: np.ndarray,
    dst: np.ndarray,
    taps: np.ndarray,
    axis: int,
    tap: np.ndarray,
) -> None:
    """One 3-tap 1-D sweep: ``dst = sum_d taps[d] * src[shifted d along axis]``.

    ``src`` is ``dst`` grown by one point on each side of ``axis``. ``tap``
    is scratch shaped like ``dst`` used to emulate a fused multiply-add
    without temporaries: ``np.multiply(src_shifted, c, out=tap);
    np.add(dst, tap, out=dst)``.

    Zero taps are skipped (exactly like the dense kernel skips zero
    coefficients), which keeps the unit-CFL exact-shift oracle bit-exact.
    """
    nonzero = [(d, c) for d, c in enumerate(taps.tolist()) if c != 0.0]
    if not nonzero:
        dst.fill(0.0)
        return
    n = dst.shape[axis]
    lead = (slice(None),) * axis

    def shifted(d: int) -> np.ndarray:
        return src[lead + (slice(d, d + n),)]

    d0, c0 = nonzero[0]
    np.multiply(shifted(d0), c0, out=dst)
    for d, c in nonzero[1:]:
        np.multiply(shifted(d), c, out=tap)
        np.add(dst, tap, out=dst)


def _apply_separable_block(
    u: np.ndarray,
    factors: Tuple[np.ndarray, np.ndarray, np.ndarray],
    out: np.ndarray,
    lo: Tuple[int, int, int],
    hi: Tuple[int, int, int],
    arena: ScratchArena,
) -> None:
    """Three 1-D sweeps (x, y, z) over the interior sub-box ``[lo, hi)``.

    The block and its one-point halo are copied once into compact scratch
    stored with the block's longest axis innermost, swept there on
    contiguous operands, and the result is copied into ``out`` once (see
    the module docstring). Two ping-pong buffers and one tap buffer are
    leased from ``arena``, so every block of a partition shares the same
    three allocations.
    """
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    ext = (x1 - x0, y1 - y0, z1 - z0)
    # Memory order, outermost first: extents ascending, ties in x, y, z order.
    order = sorted(range(3), key=lambda a: (ext[a], a))
    axes = (order.index(0), order.index(1), order.index(2))

    def lease(name: str, shape: Tuple[int, int, int]) -> np.ndarray:
        stored = (shape[order[0]], shape[order[1]], shape[order[2]])
        return arena.get(name, stored).transpose(axes)

    ax, ay, az = factors
    bx, by, bz = ext
    src = lease("sep.a", (bx + 2, by + 2, bz + 2))
    src[...] = u[x0 : x1 + 2, y0 : y1 + 2, z0 : z1 + 2]
    # x sweep: y/z still carry their halo layers.
    t1 = lease("sep.b", (bx, by + 2, bz + 2))
    _sweep(src, t1, ax, 0, lease("sep.tap", t1.shape))
    # y sweep: z still carries its halo layers.
    t2 = lease("sep.a", (bx, by, bz + 2))
    _sweep(t1, t2, ay, 1, lease("sep.tap", t2.shape))
    # z sweep: lands exactly on the block.
    res = lease("sep.b", ext)
    _sweep(t2, res, az, 2, lease("sep.tap", ext))
    out[1 + x0 : 1 + x1, 1 + y0 : 1 + y1, 1 + z0 : 1 + z1] = res


# ---------------------------------------------------------------------------
# Dense 27-point reference
# ---------------------------------------------------------------------------


def apply_stencil_dense(
    u: np.ndarray,
    coeffs: StencilCoefficients,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Equation 2 as a dense 27-point weighted sum (reference kernel).

    This is the literal transcription of Equation 2 — 27 strided reads and
    one temporary per nonzero coefficient. It is kept as the cross-checked
    reference for the separable engine and as the execution path for
    non-separable coefficient tensors. Same contract as
    :func:`apply_stencil`.
    """
    if out is None:
        out = np.zeros_like(u)
    nx, ny, nz = (s - 2 for s in u.shape)
    apply_stencil_block_dense(u, coeffs, out, (0, 0, 0), (nx, ny, nz))
    return out


def apply_stencil_block_dense(
    u: np.ndarray,
    coeffs: StencilCoefficients,
    out: np.ndarray,
    lo: Tuple[int, int, int],
    hi: Tuple[int, int, int],
) -> None:
    """Dense 27-point sum on the interior sub-box ``[lo, hi)`` (reference)."""
    if _check_block(u, lo, hi):
        return
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    acc = out[1 + x0 : 1 + x1, 1 + y0 : 1 + y1, 1 + z0 : 1 + z1]
    acc.fill(0.0)
    a = coeffs.a
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            for k in (-1, 0, 1):
                c = a[i + 1, j + 1, k + 1]
                if c == 0.0:
                    continue
                acc += c * u[
                    1 + x0 + i : 1 + x1 + i,
                    1 + y0 + j : 1 + y1 + j,
                    1 + z0 + k : 1 + z1 + k,
                ]


# ---------------------------------------------------------------------------
# Public dispatching entry points
# ---------------------------------------------------------------------------


def _check_block(
    u: np.ndarray, lo: Tuple[int, int, int], hi: Tuple[int, int, int]
) -> bool:
    """Validate block bounds; returns True when the block is empty."""
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    nx, ny, nz = (s - 2 for s in u.shape)
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        return True  # empty (possibly degenerate hi < lo) block
    if not (0 <= x0 <= x1 <= nx and 0 <= y0 <= y1 <= ny and 0 <= z0 <= z1 <= nz):
        raise ValueError(f"block [{lo}, {hi}) outside interior {(nx, ny, nz)}")
    return False


def _use_separable(coeffs: StencilCoefficients, method: str) -> bool:
    if method == "auto":
        return coeffs.is_separable
    if method == "separable":
        if not coeffs.is_separable:
            raise ValueError("coefficients carry no factor triples; cannot "
                             "force the separable path")
        return True
    if method == "dense":
        return False
    raise ValueError(f"unknown method {method!r}; use auto|separable|dense")


def _check_like(u: np.ndarray, arr: np.ndarray, name: str) -> None:
    """Reject an ``out``/``scratch`` array that differs from ``u``."""
    if arr.shape != u.shape or arr.dtype != u.dtype:
        raise ValueError(
            f"{name} has shape {arr.shape} and dtype {arr.dtype}; it must "
            f"match u ({u.shape}, {u.dtype})"
        )


def apply_stencil(
    u: np.ndarray,
    coeffs: StencilCoefficients,
    out: Optional[np.ndarray] = None,
    *,
    arena: Optional[ScratchArena] = None,
    method: str = "auto",
) -> np.ndarray:
    """Equation 2 over the full interior of a haloed field.

    Reads the full haloed field ``u`` and writes new *interior* values into
    the interior of ``out`` (allocated if ``None``; halo of ``out`` is left
    untouched). Returns ``out``. An ``out`` whose shape or dtype differs
    from ``u`` raises :class:`ValueError`.

    Dispatches to the separable three-sweep engine when ``coeffs`` carries
    factor triples (the default for tensor-product-built coefficients), and
    to the dense 27-point reference otherwise. ``method`` forces a specific
    path (``"auto"`` | ``"separable"`` | ``"dense"``); scratch space is
    leased from ``arena`` (the process default when ``None``).
    """
    if out is None:
        out = np.zeros_like(u)
    nx, ny, nz = (s - 2 for s in u.shape)
    apply_stencil_block(u, coeffs, out, (0, 0, 0), (nx, ny, nz),
                        arena=arena, method=method)
    return out


def apply_stencil_block(
    u: np.ndarray,
    coeffs: StencilCoefficients,
    out: np.ndarray,
    lo: Tuple[int, int, int],
    hi: Tuple[int, int, int],
    *,
    arena: Optional[ScratchArena] = None,
    method: str = "auto",
) -> None:
    """Apply Equation 2 on the interior sub-box ``[lo, hi)`` only.

    ``lo``/``hi`` are interior coordinates (0-based, halo excluded). Used by
    the overlap implementations, which partition the interior into pieces
    computed between communication phases, and by the CPU-box/GPU-block
    decomposition of Fig. 1. Dispatch rules match :func:`apply_stencil`;
    the separable block path is bit-identical to the separable full-field
    path, so partitioned implementations stay bit-exact against the
    single-domain reference. ``out`` must match ``u`` in shape and dtype.
    """
    _check_like(u, out, "out")
    if _check_block(u, lo, hi):
        return
    if _use_separable(coeffs, method):
        _apply_separable_block(
            u, coeffs.factors, out, lo, hi, arena if arena is not None else default_arena()
        )
    else:
        apply_stencil_block_dense(u, coeffs, out, lo, hi)


def advance(
    u: np.ndarray,
    coeffs: StencilCoefficients,
    steps: int = 1,
    scratch: Optional[np.ndarray] = None,
    *,
    arena: Optional[ScratchArena] = None,
    method: str = "auto",
) -> np.ndarray:
    """Run ``steps`` full single-domain time steps (halo fill + stencil).

    This is the reference single-task algorithm (§IV-A) with the Step-3 copy
    realized as a buffer flip. Returns the haloed buffer holding the final
    state — which is ``u`` itself for even ``steps`` and the scratch buffer
    for odd ``steps``; **callers must use the return value** (``u =
    advance(u, ...)``) rather than assume in-place semantics. Skipping the
    final write-back avoids copying the whole field (~130 MB at 256^3) just
    to honor an aliasing convention.

    ``scratch`` may be passed explicitly to make repeated calls
    allocation-free (it must match ``u`` in shape and dtype, else
    :class:`ValueError`); otherwise one flip buffer is allocated per call
    (never per step — the in-step path is zero-allocation through
    ``arena``). A per-call buffer rather than an arena lease keeps
    results of interleaved ``advance`` calls on same-shaped fields from
    aliasing each other. Intended for verification and single-domain
    reference runs.
    """
    if arena is None:
        arena = default_arena()
    if scratch is None or scratch is u:
        scratch = np.zeros_like(u)
    else:
        _check_like(u, scratch, "scratch")
    cur, nxt = u, scratch
    for _ in range(steps):
        fill_periodic_halo(cur)
        apply_stencil(cur, coeffs, out=nxt, arena=arena, method=method)
        cur, nxt = nxt, cur
    return cur
