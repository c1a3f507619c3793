"""The periodic cubic grid and the paper's Gaussian initial condition.

The paper's domain is a unit-style cube with periodic boundaries,
discretized on an ``n x n x n`` uniform grid (``n = 420`` for the headline
experiments), with a Gaussian wave centered in the cube as the initial
condition (paper §II).

Fields are stored with a one-point halo in each dimension, so a field for an
``(nx, ny, nz)`` subdomain has shape ``(nx+2, ny+2, nz+2)``; the interior is
``field[1:-1, 1:-1, 1:-1]``. Index order is ``[x, y, z]`` throughout, with z
contiguous (C order), matching the paper's "subdomain largest in x, smallest
in z, to best enable memory locality" convention transposed to C storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Grid3D", "allocate_field", "gaussian_field", "gaussian_initial_condition"]

#: Halo (ghost) width required by the 3x3x3 stencil.
HALO = 1


@dataclass(frozen=True)
class Grid3D:
    """A uniform periodic grid on ``[0, L)^3``.

    Parameters
    ----------
    n:
        Points per dimension (``(nx, ny, nz)`` or a single int for a cube).
        The paper uses 420.
    length:
        Physical edge length ``L`` of the periodic cube (default 1.0).
    """

    n: Tuple[int, int, int]
    length: float = 1.0

    def __init__(self, n, length: float = 1.0):
        if isinstance(n, (int, np.integer)):
            n = (int(n),) * 3
        n = tuple(int(v) for v in n)
        if len(n) != 3 or any(v < 3 for v in n):
            raise ValueError(f"grid needs >= 3 points per dimension, got {n}")
        if length <= 0:
            raise ValueError("length must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", float(length))

    @property
    def spacing(self) -> Tuple[float, float, float]:
        """Grid spacing ``delta`` per dimension."""
        return tuple(self.length / v for v in self.n)

    @property
    def min_spacing(self) -> float:
        """Smallest spacing; the ``delta`` used in ``nu = Delta/delta``."""
        return min(self.spacing)

    @property
    def total_points(self) -> int:
        """Total number of grid points."""
        nx, ny, nz = self.n
        return nx * ny * nz

    def coordinates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell-centered coordinate vectors ``(x, y, z)``."""
        return tuple(
            (np.arange(nv) + 0.5) * (self.length / nv) for nv in self.n
        )

    def mesh(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays for vectorized field evaluation."""
        x, y, z = self.coordinates()
        return x[:, None, None], y[None, :, None], z[None, None, :]


def allocate_field(shape: Sequence[int], dtype=np.float64) -> np.ndarray:
    """Allocate a zeroed field with a one-point halo around ``shape``."""
    nx, ny, nz = (int(v) for v in shape)
    return np.zeros((nx + 2 * HALO, ny + 2 * HALO, nz + 2 * HALO), dtype=dtype)


def gaussian_initial_condition(
    grid: Grid3D,
    sigma: float = 0.08,
    center: Sequence[float] | None = None,
    amplitude: float = 1.0,
) -> np.ndarray:
    """The paper's initial condition: a Gaussian wave at the cube center.

    Returns the interior values (no halo), shape ``grid.n``. ``sigma`` is
    expressed as a fraction of the edge length, small enough that periodic
    images are negligible at double precision for the defaults.
    """
    if center is None:
        center = (0.5 * grid.length,) * 3
    return gaussian_field(grid.coordinates(), center, sigma, grid.length, amplitude)


def gaussian_field(
    coords: Sequence[np.ndarray],
    center: Sequence[float],
    sigma: float,
    length: float,
    amplitude: float = 1.0,
) -> np.ndarray:
    """``amplitude * exp(-r^2 / (2 (sigma L)^2))`` on the tensor grid ``coords``.

    ``coords`` are the cell-centre coordinate vectors of x, y and z; ``r``
    is the minimum-image distance to ``center`` on the torus of edge
    ``length``. The field is built in one buffer: the squared distances
    are summed as ``(wx + wy) + wz`` straight into it, then divided by
    ``-2 (sigma L)^2`` (IEEE division is sign-symmetric, so this is the
    expression's negate-then-divide, bit for bit) and exponentiated in place.
    ``amplitude`` 1.0 is no pass at all (``x * 1.0 == x``).
    """
    L = length

    def wrapped_sq(coord, c0):
        d = np.abs(coord - c0)
        d = np.minimum(d, L - d)  # minimum-image distance on the torus
        return d * d

    x, y, z = coords
    wxy = wrapped_sq(x, center[0])[:, None] + wrapped_sq(y, center[1])[None, :]
    field = np.empty((x.size, y.size, z.size))
    np.add(wxy[:, :, None], wrapped_sq(z, center[2]), out=field)
    np.divide(field, -(2.0 * (sigma * L) ** 2), out=field)
    np.exp(field, out=field)
    if amplitude != 1.0:
        np.multiply(field, amplitude, out=field)
    return field
