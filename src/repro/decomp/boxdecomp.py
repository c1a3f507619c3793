"""CPU-box / GPU-block decomposition of a task's subdomain (Fig. 1).

The hybrid implementations (§IV-H, §IV-I) split each task-local subdomain
between the GPU, which gets an interior *block*, and the CPUs, which get the
enclosing *box* — a shell of tunable thickness. The thickness is the CPU/GPU
load-balance knob, and the paper's key result is that a *thin* box wins
because the CPU shell decouples MPI communication from CPU-GPU (PCIe)
communication.

Coordinates here are interior coordinates of the task subdomain (0-based,
halo excluded). The shell is decomposed into six non-overlapping wall slabs,
two per dimension, so the full-overlap implementation can interleave wall
computation with the same dimension's MPI exchange:

* ±x walls: full y/z extent;
* ±y walls: x restricted to the block's x range;
* ±z walls: x and y restricted to the block's ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["Wall", "BoxDecomposition"]

Coords = Tuple[int, int, int]


@dataclass(frozen=True)
class Wall:
    """One rectangular slab of the CPU box shell."""

    dim: int
    side: int  # -1 or +1
    lo: Coords
    hi: Coords  # exclusive

    @property
    def points(self) -> int:
        """Number of grid points in the slab."""
        return max(0, (self.hi[0] - self.lo[0])) * max(0, (self.hi[1] - self.lo[1])) * max(
            0, (self.hi[2] - self.lo[2])
        )


class BoxDecomposition:
    """Split an ``(nx, ny, nz)`` subdomain into GPU block + CPU box walls.

    Parameters
    ----------
    shape:
        Interior shape of the task subdomain.
    thickness:
        Wall thickness ``T >= 1`` in points; identical on all six sides
        (the paper's single "box thickness" tuning parameter).
    """

    def __init__(self, shape: Sequence[int], thickness: int):
        self.shape: Coords = tuple(int(v) for v in shape)
        self.thickness = int(thickness)
        nx, ny, nz = self.shape
        t = self.thickness
        if t < 1:
            raise ValueError("box thickness must be >= 1")
        if min(nx, ny, nz) <= 2 * t:
            raise ValueError(
                f"thickness {t} leaves no GPU block in subdomain {self.shape}"
            )
        self.block_lo: Coords = (t, t, t)
        self.block_hi: Coords = (nx - t, ny - t, nz - t)

    # -- point counts --------------------------------------------------------
    @property
    def total_points(self) -> int:
        """All interior points of the subdomain."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def gpu_points(self) -> int:
        """Points computed by the GPU block."""
        return (
            (self.block_hi[0] - self.block_lo[0])
            * (self.block_hi[1] - self.block_lo[1])
            * (self.block_hi[2] - self.block_lo[2])
        )

    @property
    def cpu_points(self) -> int:
        """Points computed by the CPU box (shell)."""
        return self.total_points - self.gpu_points

    @property
    def cpu_fraction(self) -> float:
        """Fraction of the subdomain's work assigned to the CPUs."""
        return self.cpu_points / self.total_points

    @property
    def block_shape(self) -> Coords:
        """Shape of the GPU block."""
        return tuple(h - l for l, h in zip(self.block_lo, self.block_hi))

    # -- wall slabs -----------------------------------------------------------
    def walls(self) -> List[Wall]:
        """The six non-overlapping CPU wall slabs, ordered x, y, z."""
        nx, ny, nz = self.shape
        t = self.thickness
        bx0, by0, bz0 = self.block_lo
        bx1, by1, bz1 = self.block_hi
        return [
            Wall(0, -1, (0, 0, 0), (t, ny, nz)),
            Wall(0, +1, (nx - t, 0, 0), (nx, ny, nz)),
            Wall(1, -1, (bx0, 0, 0), (bx1, t, nz)),
            Wall(1, +1, (bx0, ny - t, 0), (bx1, ny, nz)),
            Wall(2, -1, (bx0, by0, 0), (bx1, by1, t)),
            Wall(2, +1, (bx0, by0, nz - t), (bx1, by1, nz)),
        ]

    # -- CPU-GPU exchange surfaces ---------------------------------------------
    @property
    def inner_halo_points(self) -> int:
        """CPU points the GPU needs as halo: one layer just outside the block."""
        return self._shell_layer_points(self.block_lo, self.block_hi, outward=True)

    @property
    def inner_boundary_points(self) -> int:
        """GPU points the CPU needs as halo: the block's outermost layer."""
        return self._shell_layer_points(self.block_lo, self.block_hi, outward=False)

    @staticmethod
    def _shell_layer_points(lo: Coords, hi: Coords, outward: bool) -> int:
        bx, by, bz = (h - l for l, h in zip(lo, hi))
        if outward:
            # Box one point larger on every side, minus the block itself.
            return (bx + 2) * (by + 2) * (bz + 2) - bx * by * bz
        # Block minus the block shrunk by one point per side.
        inner = max(0, bx - 2) * max(0, by - 2) * max(0, bz - 2)
        return bx * by * bz - inner

    def inner_exchange_bytes(self, itemsize: int = 8) -> Tuple[int, int]:
        """(host→device, device→host) bytes per step for the inner exchange."""
        return (
            self.inner_halo_points * itemsize,
            self.inner_boundary_points * itemsize,
        )

    # -- CPU wall interior/outer-boundary split (for §IV-I) -------------------
    def wall_interior_box(self, wall: Wall) -> Tuple[Coords, Coords]:
        """``wall`` clipped away from the subdomain's outer surface.

        These are the wall points computable while MPI for the wall's
        dimension is still in flight (they read no outer halo).
        """
        nx, ny, nz = self.shape
        lo = tuple(max(l, 1) for l in wall.lo)
        hi = tuple(min(h, n - 1) for h, n in zip(wall.hi, (nx, ny, nz)))
        return lo, hi

    def wall_outer_boundary_points(self) -> int:
        """CPU points touching the *task's* outer halo (computed after MPI)."""
        nx, ny, nz = self.shape
        inner = max(0, nx - 2) * max(0, ny - 2) * max(0, nz - 2)
        return nx * ny * nz - inner

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BoxDecomposition(shape={self.shape}, T={self.thickness}, "
            f"gpu={self.gpu_points}, cpu={self.cpu_points})"
        )
