"""Correctness oracles for the scheme and its implementations.

Three independent oracles:

* **Unit-CFL exact shift** — when ``|c_i| * nu = 1`` for an axis-aligned
  velocity, the Lax-Wendroff coefficients collapse to a pure one-cell shift,
  so each step must reproduce the initial field exactly (to roundoff),
  circularly shifted. This catches indexing and halo bugs bit-for-bit
  (:func:`repro.validation.validate_implementation` checks it).
* **Convergence order** — global error at fixed simulated time must shrink
  as O(delta^2) under simultaneous refinement of delta and Delta (paper:
  the method is O(Delta^2) for a fixed simulated time).
* **Cross-implementation agreement** — every parallel implementation must
  produce the single-task field exactly (same arithmetic, same order of
  operations per point), which the test suite asserts field-by-field.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.stencil.analytic import analytic_solution, error_norms
from repro.stencil.coefficients import max_stable_nu, tensor_product_coefficients
from repro.stencil.grid import Grid3D, allocate_field, gaussian_initial_condition
from repro.stencil.kernels import advance, interior

__all__ = ["run_reference", "convergence_order"]


def run_reference(
    n: int,
    velocity: Sequence[float],
    steps: int,
    nu_fraction: float = 1.0,
    sigma: float = 0.08,
) -> Tuple[np.ndarray, dict]:
    """Run the single-domain reference for ``steps`` steps on an ``n^3`` grid.

    ``nu_fraction`` scales ``nu`` relative to the maximum stable value (the
    paper runs at the maximum, ``nu_fraction = 1``). Returns the final
    interior field and the error norms against the analytic solution.
    """
    grid = Grid3D(n)
    nu = nu_fraction * max_stable_nu(velocity)
    coeffs = tensor_product_coefficients(velocity, nu)
    u = allocate_field(grid.n)
    interior(u)[...] = gaussian_initial_condition(grid, sigma=sigma)
    u = advance(u, coeffs, steps=steps)
    dt = nu * grid.min_spacing
    exact = analytic_solution(grid, velocity, time=steps * dt, sigma=sigma)
    return interior(u).copy(), error_norms(interior(u), exact)


def convergence_order(
    velocity: Sequence[float],
    resolutions: Sequence[int] = (16, 32, 64),
    final_time: float = 0.25,
    nu_fraction: float = 0.9,
    sigma: float = 0.15,
    norm: str = "l2",
) -> float:
    """Estimated order of accuracy from a refinement study.

    Runs the reference to (approximately) ``final_time`` at each resolution
    and fits ``log(error)`` against ``log(delta)``; returns the slope, which
    should be close to 2 for this scheme.
    """
    errs, deltas = [], []
    for n in resolutions:
        grid = Grid3D(n)
        nu = nu_fraction * max_stable_nu(velocity)
        dt = nu * grid.min_spacing
        steps = max(1, int(round(final_time / dt)))
        _, norms = run_reference(n, velocity, steps, nu_fraction=nu_fraction, sigma=sigma)
        errs.append(norms[norm])
        deltas.append(grid.min_spacing)
    slope, _ = np.polyfit(np.log(deltas), np.log(errs), 1)
    return float(slope)

