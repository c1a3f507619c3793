"""Per-rank functional state (fields, packing, local kernels).

A :class:`RankData` carries either real NumPy fields (functional mode) or
nothing (shadow mode) behind one API, so the implementations' programs call
the same methods either way. All methods are numerics-only — simulated time
is charged separately by the context's cost helpers.

Note on layout: the functional arrays are C-ordered ``[x, y, z]`` (z
contiguous), while the *cost* models reference the paper's Fortran layout
(x contiguous); the numbers produced are identical either way, and the
costs follow the paper's machine.

A rank holds no scratch of its own: the separable sweeps lease from the
calling thread's default arena (:func:`repro.stencil.arena.default_arena`),
which every rank and device side of a run shares, and a shadow rank holds
no buffers at all.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import RunConfig
from repro.decomp.partition import Subdomain
from repro.stencil.coefficients import StencilCoefficients, tensor_product_coefficients
from repro.stencil.grid import Grid3D, allocate_field, gaussian_field
from repro.stencil.kernels import (
    apply_stencil_block,
    fill_periodic_halo,
    interior,
)
from repro.decomp.halo import pack_face, unpack_face

__all__ = ["RankData", "local_initial_condition"]


def local_initial_condition(cfg: RunConfig, sub: Subdomain) -> np.ndarray:
    """The Gaussian initial condition restricted to ``sub`` (no halo)."""
    L = Grid3D(cfg.domain).length
    coords = [
        (np.arange(o, o + n) + 0.5) * (L / n_global)
        for o, n, n_global in zip(sub.offset, sub.shape, cfg.domain)
    ]
    return gaussian_field(coords, (0.5 * L,) * 3, cfg.sigma, L)


class RankData:
    """One rank's fields and local numerics (or shadow no-ops)."""

    def __init__(self, cfg: RunConfig, sub: Subdomain):
        self.cfg = cfg
        self.sub = sub
        self.functional = cfg.functional
        #: the stencil weights; None in shadow mode, where no kernel runs.
        self.coeffs: Optional[StencilCoefficients] = None
        if self.functional:
            self.coeffs = tensor_product_coefficients(cfg.velocity, cfg.nu)
            self.u: Optional[np.ndarray] = allocate_field(sub.shape)
            self.unew: Optional[np.ndarray] = allocate_field(sub.shape)
            interior(self.u)[...] = local_initial_condition(cfg, sub)
        else:
            self.u = None
            self.unew = None

    # -- halo / buffers -------------------------------------------------------
    def fill_halo_local(self, dims: Sequence[int] = (0, 1, 2)) -> None:
        """Periodic halo fill within this rank (single-task / GPU-resident)."""
        if self.u is not None:
            fill_periodic_halo(self.u, dims)

    def pack(self, dim: int, side: int) -> Optional[np.ndarray]:
        """Pack the outgoing boundary plane for the (dim, side) neighbor."""
        if self.u is None:
            return None
        return pack_face(self.u, dim, side)

    def unpack(self, dim: int, side: int, buf: Optional[np.ndarray]) -> None:
        """Store a received plane into the (dim, side) halo."""
        if self.u is None:
            return
        if buf is None:
            raise ValueError("functional rank received an empty payload")
        unpack_face(self.u, dim, side, buf)

    # -- compute ---------------------------------------------------------------
    def apply_block(self, lo: Tuple[int, int, int], hi: Tuple[int, int, int]) -> None:
        """Equation 2 on interior sub-box [lo, hi) into ``unew``.

        Runs the separable three-sweep engine (the coefficients are built
        via :func:`tensor_product_coefficients`, so factor triples are
        always available) on the calling thread's scratch arena.
        """
        if self.u is not None:
            apply_stencil_block(self.u, self.coeffs, self.unew, lo, hi)

    def apply_all(self) -> None:
        """Equation 2 on the whole interior."""
        self.apply_block((0, 0, 0), self.sub.shape)

    def copy_state(self) -> None:
        """Step 3 of §IV-A: new state becomes current state.

        A buffer flip, as in :func:`~repro.stencil.kernels.advance` and the
        GPU-resident program: ``u`` and ``unew`` swap, so read them through
        this object after a step rather than holding either array across
        one. The halo ``u`` inherits is stale; every program refills the
        whole halo (exchange or local fill) before it next reads it.
        """
        self.u, self.unew = self.unew, self.u

    def copy_region(self, lo: Tuple[int, int, int], hi: Tuple[int, int, int]) -> None:
        """Copy ``unew`` over ``u`` on the interior box [lo, hi) only."""
        if self.u is None:
            return
        sl = tuple(slice(1 + l, 1 + h) for l, h in zip(lo, hi))
        self.u[sl] = self.unew[sl]

    def interior_view(self) -> Optional[np.ndarray]:
        """Interior of the current state (for gathering/verification)."""
        if self.u is None:
            return None
        return interior(self.u)

    # -- geometry helpers used by overlap partitions ---------------------------
    def core_box(self) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
        """Interior-core box: all points not touching the halo."""
        nx, ny, nz = self.sub.shape
        return (1, 1, 1), (nx - 1, ny - 1, nz - 1)

    def core_points(self) -> int:
        """Point count of the interior core."""
        (x0, y0, z0), (x1, y1, z1) = self.core_box()
        return max(0, x1 - x0) * max(0, y1 - y0) * max(0, z1 - z0)

    def boundary_points(self) -> int:
        """Points touching the halo (computed after communication)."""
        return self.sub.points - self.core_points()

    def core_thirds(self):
        """The interior core split into thirds along z (paper §IV-C)."""
        (x0, y0, z0), (x1, y1, z1) = self.core_box()
        span = z1 - z0
        cuts = [z0, z0 + span // 3, z0 + (2 * span) // 3, z1]
        return [
            ((x0, y0, cuts[i]), (x1, y1, cuts[i + 1])) for i in range(3)
        ]

    def boundary_slabs(self):
        """The six boundary-shell slabs (non-overlapping, thickness 1)."""
        nx, ny, nz = self.sub.shape
        return [
            ((0, 0, 0), (1, ny, nz)),
            ((nx - 1, 0, 0), (nx, ny, nz)),
            ((1, 0, 0), (nx - 1, 1, nz)),
            ((1, ny - 1, 0), (nx - 1, ny, nz)),
            ((1, 1, 0), (nx - 1, ny - 1, 1)),
            ((1, 1, nz - 1), (nx - 1, ny - 1, nz)),
        ]
