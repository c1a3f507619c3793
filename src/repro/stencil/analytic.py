"""Analytic solution and error norms.

For constant uniform velocity, Equation 1 translates the initial condition
rigidly: ``u(x, t) = u0(x - c t)`` with periodic wraparound. The paper
verifies its implementations "by recording norms of the difference between
the computed state and the analytic state" (§IV-A); we do the same.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.stencil.grid import Grid3D, gaussian_initial_condition

__all__ = ["analytic_solution", "error_norms"]


def analytic_solution(
    grid: Grid3D,
    velocity: Sequence[float],
    time: float,
    sigma: float = 0.08,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Exact state at ``time`` for the centered-Gaussian initial condition.

    The Gaussian's center is advected to ``center + c*t`` (mod L); the
    minimum-image evaluation in :func:`gaussian_initial_condition` handles
    the periodic wrap.
    """
    L = grid.length
    center = tuple((0.5 * L + float(c) * time) % L for c in velocity)
    return gaussian_initial_condition(grid, sigma=sigma, center=center, amplitude=amplitude)


def error_norms(computed: np.ndarray, exact: np.ndarray) -> Dict[str, float]:
    """L1, L2 and Linf norms of ``computed - exact`` (grid-normalized).

    L1 and L2 are normalized by the point count so they are resolution
    comparable (discrete approximations of the continuous norms). One
    buffer holds ``|computed - exact|`` for both L1 and Linf, then its
    square (``|d| * |d| == d * d`` exactly) for L2.
    """
    if computed.shape != exact.shape:
        raise ValueError(f"shape mismatch: {computed.shape} vs {exact.shape}")
    diff = np.subtract(computed, exact)
    np.abs(diff, out=diff)
    npts = diff.size
    l1 = float(diff.sum() / npts)
    linf = float(diff.max())
    np.multiply(diff, diff, out=diff)
    return {"l1": l1, "l2": float(np.sqrt(diff.sum() / npts)), "linf": linf}
