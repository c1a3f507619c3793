"""Functional emulation of the tiled GPU stencil kernel ([6] in the paper).

The performance model in :mod:`repro.simgpu.blockmodel` prices a specific
kernel structure: 2-D thread blocks own an xy tile plus halo, iterate over
z, and stage an (bx+2) x (by+2) slab of the current plane in shared memory
while keeping the z-neighbors in registers. This module *executes* that
structure — per tile, with explicit staged slabs and the three-plane
register rotation — so tests can verify it computes exactly what the dense
27-point sweep computes, remainder tiles, halo staging and all.

It is a test oracle, imported by name from the tests beside it, and
deliberately slow (a semantics check, not a fast path);
production functional runs use :func:`repro.stencil.kernels.apply_stencil`,
which dispatches to the separable three-sweep engine for tensor-product
coefficients. Because the tiled kernel emulated here is a *dense* 27-term
accumulation, its bit-level reference is
:func:`repro.stencil.kernels.apply_stencil_dense`; against the separable
path it agrees only to roundoff (different summation order).

The "shared memory" staging slabs are flat leases of a
:class:`~repro.stencil.arena.ScratchArena` reshaped to the tile (a ring
of three per tile shape), mirroring how the real kernel reuses the same shared-memory
allocation for every tile — and keeping repeated emulation calls free of
per-plane allocations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.stencil.arena import ScratchArena, default_arena
from repro.stencil.coefficients import StencilCoefficients

__all__ = ["emulate_tiled_kernel"]


def emulate_tiled_kernel(
    u: np.ndarray,
    coeffs: StencilCoefficients,
    block: Tuple[int, int],
    out: Optional[np.ndarray] = None,
    arena: Optional[ScratchArena] = None,
) -> np.ndarray:
    """Run the tiled kernel over a haloed field; returns the haloed output.

    ``u`` follows the usual one-point-halo convention (halos must already
    hold valid values — the resident kernel's halo threads or a prior
    exchange provide them). ``block`` is the (bx, by) thread-block shape;
    tiles sticking past the domain edge are clipped exactly like partially
    filled thread blocks. ``arena`` supplies the staged-slab buffers (the
    calling thread's default when ``None``).
    """
    bx, by = block
    if bx < 1 or by < 1:
        raise ValueError(f"bad block {block}")
    nx, ny, nz = (s - 2 for s in u.shape)
    if out is None:
        out = np.zeros_like(u)
    if arena is None:
        arena = default_arena()
    a = coeffs.a

    for i0 in range(0, nx, bx):
        iw = min(bx, nx - i0)  # clipped tile width (remainder tiles)
        for j0 in range(0, ny, by):
            jw = min(by, ny - j0)
            # "Shared memory": a ring of three staged slabs of
            # (iw+2) x (jw+2), rotated as the block iterates over z —
            # behind/current/ahead. The ring buffers are arena-leased, so
            # every tile of the same shape (and every later call) reuses
            # the same allocation, like a kernel's static shared memory.
            ring = [
                arena.get(("emulate.slab", r, iw, jw),
                          (iw + 2) * (jw + 2)).reshape(iw + 2, jw + 2)
                for r in range(3)
            ]
            acc = arena.get(("emulate.acc", iw, jw), iw * jw).reshape(iw, jw)

            def load_slab(k, buf):
                # Halo threads load the rim; interior threads their point.
                np.copyto(buf, u[i0 : i0 + iw + 2, j0 : j0 + jw + 2, k])
                return buf

            behind = load_slab(0, ring[0])
            current = load_slab(1, ring[1])
            for k in range(1, nz + 1):
                ahead = load_slab(k + 1, ring[(k + 1) % 3])
                # Each thread (ti, tj) computes its point from the three
                # staged slabs; vectorized over the tile here.
                acc.fill(0.0)
                for di, slab in ((-1, behind), (0, current), (1, ahead)):
                    for dx in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            c = a[dx + 1, dy + 1, di + 1]
                            if c == 0.0:
                                continue
                            acc += c * slab[
                                1 + dx : 1 + iw + dx, 1 + dy : 1 + jw + dy
                            ]
                out[1 + i0 : 1 + i0 + iw, 1 + j0 : 1 + j0 + jw, k] = acc
                behind, current = current, ahead
    return out
