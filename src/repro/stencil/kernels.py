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
each a 3-tap 1-D stencil applied with in-place ufuncs over flat scratch
from a :class:`~repro.stencil.arena.ScratchArena`, performing zero array
allocations in steady state. That turns 27 strided reads plus 27 temporary
allocations per point into 9 contiguous-ish passes, a >3x throughput win at
256^3 (see ``benchmarks/bench_kernels.py`` and
``tests/perf/test_kernel_throughput.py``).

The **dense 27-point kernel** (:func:`apply_stencil_dense`,
:func:`apply_stencil_block_dense`) is retained as the cross-checked
reference and as the execution path for non-separable coefficient tensors
(``coeffs.factors is None``).

Flat sweeps: a block ``[lo, hi)`` of extents ``(bx, by, bz)`` (interior
coordinates; haloed-array coordinates are shifted by +1) reads
``u[x0:x1+2, y0:y1+2, z0:z1+2]``, the block plus its one-point halo, which
is always in bounds for a block inside the interior. That padded box
lives in one flat buffer with its axes ordered by block extent, longest
innermost (ties keep x, y, z order, so a cube is C-ordered): a thin slab
or a z-third then gets long contiguous runs instead of one short NumPy
loop per row. Each 1-D sweep is a 3-tap operation over the whole flat
buffer at the swept axis's stride ``s``: tap ``d`` (0, 1, 2 for offsets
-1, 0, +1) reads the source at ``d*s`` to ``d*s + n``, and the output
span ``n`` is the source's minus ``2*s``. Output index ``j`` holds the
padded point ``j + s`` of its source, so after the x, y and z sweeps
index ``i*sx + j*sy + k*sz`` holds block point ``(i, j, k)``: a strided
view of the last buffer that is copied into ``out``'s block once,
leaving ``out``'s halo untouched. Points whose coordinate on an
already-swept axis lies in the halo mix neighbouring rows, but a later
tap moves along another axis only, so none of them reaches the block:
the pad of the two inner axes is the only wasted work.

Three things keep the passes few:

* a whole-field block of a C-contiguous float64 ``u`` whose storage order
  is x, y, z is already in this layout and is read in place, without the
  copy-in;
* a factor whose only nonzero tap is 1.0 is an index offset into the
  source, not a pass (``x * 1.0 == x`` exactly; the default velocity puts
  the x axis at unit CFL);
* the ping-pong and tap buffers are flat leases of a
  :class:`~repro.stencil.arena.ScratchArena`, by default the calling
  thread's, which every rank of a run shares: the steady state allocates
  nothing, and a run holds its scratch once, not once per rank.

Scratch is bounded by :data:`SCRATCH_BUDGET` (2^17 points, 1 MiB per
lease), not by the largest block. A block whose padded box holds more
points is swept in chunks of whole outer planes (planes of the outermost
storage axis): each chunk reads its planes plus the two beside them,
copied in or read in place, and runs the same sweeps over a box that is
shorter on the outer axis only. No lease then exceeds the larger of the
budget and three outer planes: a 96^3 ``advance`` holds 2.5 MB of scratch
where one whole-field sweep held 22 MB, and runs faster because each chunk
stays in cache. Every block of a 48^3 rank fits the budget and is swept in
one chunk, with the same leases as before chunking (2.88 MB for a whole
48^3 field).

What a call does is fixed by its block extent and factor taps, so it is
memoized as a sweep plan (:func:`_plan`) keyed by the tap values
(:attr:`StencilCoefficients.taps`), never by object identity.

Every point still sees the identical ufunc sequence whatever the block
bounds, the chunking, the scratch memory order and whether the source was
copied: the
first nonzero tap multiplied into the accumulator, each further tap
multiplied into the tap buffer and added, zero taps skipped. The block
path is therefore *bit-identical* to the full-field path (the property
tests assert this, and ``tests/stencil/test_kernel_digests.py`` pins the
fields across commits), which preserves the repo's cross-implementation
bit-exactness oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

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


class _Geometry(NamedTuple):
    """Flat storage of one block extent's padded box."""

    #: the block plus its one-point halo, ``(bx + 2, by + 2, bz + 2)``
    padded: Tuple[int, int, int]
    #: points in ``padded``
    size: int
    #: flat element stride of the x, y and z axes
    strides: Tuple[int, int, int]
    #: the same strides in float64 bytes
    byte_strides: Tuple[int, int, int]
    #: the storage order is x, y, z (the padded box is C-ordered)
    xyz: bool
    #: the outermost axis, whose planes a chunked sweep splits the box into
    outer: int


def _geometry(ext: Tuple[int, int, int]) -> _Geometry:
    """Storage of a block of extents ``ext``: longest axis innermost."""
    padded = tuple(n + 2 for n in ext)
    # Memory order, outermost first: extents ascending, ties in x, y, z order.
    order = sorted(range(3), key=lambda a: (ext[a], a))
    strides = [0, 0, 0]
    size = 1
    for a in reversed(order):
        strides[a] = size
        size *= padded[a]
    return _Geometry(padded, size, tuple(strides),
                     tuple(8 * s for s in strides), order == [0, 1, 2], order[0])


#: Scratch budget of the separable sweeps, in float64 points per lease
#: (1 MiB). A block whose padded box holds more points is swept in chunks
#: of whole outer planes that each fit it, so a lease never exceeds the
#: larger of the budget and three outer planes, whatever the block size.
#: Every block of a 48^3 rank (padded 50^3) is swept in one piece.
SCRATCH_BUDGET = 2**17


class _Plan(NamedTuple):
    """The sweeps of one block extent and factor triple."""

    geo: _Geometry
    #: per sweep ``(lease name, span, nonzero (offset, coefficient) pairs)``;
    #: no lease name: a unit single tap, an offset instead of a pass
    sweeps: Tuple[Tuple[Optional[str], int, Tuple[Tuple[int, float], ...]], ...]
    #: length of the ``sep.tap`` lease (0 when no sweep has two taps)
    tap: int


@lru_cache(maxsize=256)
def _plan(ext: Tuple[int, int, int], taps: Tuple[Tuple[float, ...], ...]) -> _Plan:
    """The sweeps of a block of extents ``ext`` with factor taps ``taps``."""
    geo = _geometry(ext)
    names = iter(("sep.b", "sep.a", "sep.b"))
    sweeps, tap, n = [], 0, geo.size
    for factor, s in zip(taps, geo.strides):
        n -= 2 * s
        nonzero = tuple((d * s, c) for d, c in enumerate(factor) if c != 0.0)
        unit = len(nonzero) == 1 and nonzero[0][1] == 1.0
        sweeps.append((None if unit else next(names), n, nonzero))
        if len(nonzero) > 1 and not tap:  # the first such sweep is the longest
            tap = n
    return _Plan(geo, tuple(sweeps), tap)


def _apply_separable_block(
    u: np.ndarray,
    taps: Tuple[Tuple[float, ...], ...],
    out: np.ndarray,
    lo: Tuple[int, int, int],
    hi: Tuple[int, int, int],
    arena: ScratchArena,
) -> None:
    """Three 1-D sweeps (x, y, z) over the interior sub-box ``[lo, hi)``.

    The padded block is swept as one flat buffer, each sweep at its axis's
    stride, and the result is copied into ``out`` once (see the module
    docstring). A padded box over :data:`SCRATCH_BUDGET` points is swept
    in chunks of whole outer planes, each chunk copied in (or read in
    place), swept and copied out on its own. A whole C-ordered field is
    read in place, and a unit single-tap factor is an offset instead of a
    pass. Zero taps are skipped, exactly like the dense kernel skips zero
    coefficients, which keeps the unit-CFL exact-shift oracle bit-exact.
    """
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    ext = (x1 - x0, y1 - y0, z1 - z0)
    plan = _plan(ext, taps)
    geo = plan.geo
    o = geo.outer
    depth, plane = ext[o], geo.strides[o]
    # Outer planes per chunk: the whole block when its box fits the budget,
    # else as many as fit beside their two halo planes (at least one, and
    # never more than the block has).
    step = depth if geo.size <= SCRATCH_BUDGET else max(1, SCRATCH_BUDGET // plane - 2)
    whole = None
    if (geo.xyz and u.shape == geo.padded and u.dtype == np.float64
            and u.flags.c_contiguous):
        whole = u.reshape(-1)  # the whole field, already in sweep layout
    box = (slice(x0, x1 + 2), slice(y0, y1 + 2), slice(z0, z1 + 2))
    block = (slice(1 + x0, 1 + x1), slice(1 + y0, 1 + y1), slice(1 + z0, 1 + z1))
    padded, shape, short = geo.padded, ext, 0
    if plan.tap:  # sized for the first chunk, the largest
        tap = arena.get("sep.tap", plan.tap - (depth - step) * plane)
    for c0 in range(0, depth, step):
        if step < depth:  # narrow the boxes to this chunk's outer planes
            planes = min(step, depth - c0)
            a = lo[o] + c0
            # the chunk's box holds this many points fewer than the block's
            short = (depth - planes) * plane
            box = _replace(box, o, slice(a, a + planes + 2))
            block = _replace(block, o, slice(1 + a, 1 + a + planes))
            padded = _replace(padded, o, planes + 2)
            shape = _replace(shape, o, planes)
        if whole is not None:
            src = whole[c0 * plane : c0 * plane + geo.size - short]
        else:
            src = arena.get("sep.a", geo.size - short)
            np.ndarray(padded, np.float64, src, strides=geo.byte_strides)[...] = u[box]
        for name, n, nonzero in plan.sweeps:
            n -= short
            if name is None:
                k = nonzero[0][0]
                src = src[k : k + n]
                continue
            dst = arena.get(name, n)
            if not nonzero:
                dst.fill(0.0)
            else:
                k, c = nonzero[0]
                np.multiply(src[k : k + n], c, out=dst)
                if len(nonzero) > 1:
                    t = tap[:n]
                    for k, c in nonzero[1:]:
                        np.multiply(src[k : k + n], c, out=t)
                        np.add(dst, t, out=dst)
            src = dst
        out[block] = np.ndarray(shape, np.float64, src, strides=geo.byte_strides)


def _replace(t: tuple, i: int, value) -> tuple:
    """``t`` with item ``i`` replaced by ``value``."""
    return t[:i] + (value,) + t[i + 1:]


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
    leased from ``arena`` (the calling thread's default when ``None``).
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
            u, coeffs.taps, out, lo, hi, arena if arena is not None else default_arena()
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
