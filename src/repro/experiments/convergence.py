"""Numerical-accuracy experiment (paper §II's order claims).

The paper states the scheme is O(Delta^3) per step, O(Delta^2) at fixed
simulated time, and stable at the maximum nu. This experiment regenerates
the refinement study and the stability boundary — the numerical-analysis
half of the reproduction, complementing the performance figures.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.stencil.coefficients import amplification_factor, max_stable_nu
from repro.stencil.verification import convergence_order, run_reference

VELOCITY = (1.0, 0.5, 0.25)


def _max_amplification(
    nu_fraction: float, n_theta: int = 9, velocity=VELOCITY
) -> float:
    """Largest ``|g|`` over an ``n_theta``-per-axis grid of Fourier modes.

    The symbol is a product of one factor per axis, so each factor is
    evaluated once per (axis, theta) and each mode's symbol is formed as
    ``((1+0j) * fx) * fy * fz`` -- the complex products of
    :func:`amplification_factor`, in its order, so every ``|g|`` is
    bit-identical to a per-mode call.
    """
    nu = nu_fraction * max_stable_nu(velocity)
    thetas = np.linspace(0.0, np.pi, n_theta)
    fx, fy, fz = (
        [_axis_factor(c, nu, th) for th in thetas] for c in velocity
    )
    g = 1.0 + 0.0j
    return max(
        abs(complex(gxy * z))
        for gx in [g * x for x in fx]
        for gxy in [gx * y for y in fy]
        for z in fz
    )


def _axis_factor(c: float, nu: float, th) -> complex:
    """One axis's factor of :func:`amplification_factor`, same expression."""
    lam = float(c) * float(nu)
    return 1.0 - lam * lam * (1.0 - np.cos(th)) - 1j * lam * np.sin(th)


def run(fast: bool = False) -> ExperimentResult:
    """Refinement study + stability boundary."""
    resolutions = (16, 32) if fast else (16, 32, 64)
    rows = []
    errs = {}
    for n in resolutions:
        # Fixed simulated time; steps scale with resolution.
        _, norms = run_reference(n, VELOCITY, steps=max(1, n // 4),
                                 nu_fraction=0.9, sigma=0.15)
        errs[n] = norms["l2"]
        rows.append(["refinement", n, norms["l2"], norms["linf"]])
    order = convergence_order(VELOCITY, resolutions=resolutions,
                              nu_fraction=0.9, sigma=0.15)
    rows.append(["fitted order", "-", order, "-"])

    stab = {}
    for frac in (0.5, 0.9, 1.0, 1.1, 1.25):
        g = _max_amplification(frac)
        stab[frac] = g
        rows.append(["max |g| at nu fraction", frac, g,
                     "stable" if g <= 1 + 1e-9 else "UNSTABLE"])

    return ExperimentResult(
        exp_id="convergence",
        title="Order of accuracy and stability boundary (paper §II)",
        paper_claim=(
            "O(Delta^2) for a fixed simulated time; numerically stable for "
            "nu up to the CFL limit (and run at that maximum)."
        ),
        columns=["study", "parameter", "value", "extra"],
        rows=rows,
        series={"l2_error": {n: e for n, e in errs.items()},
                "amplification": stab},
        notes=f"fitted convergence order {order:.2f} (2.0 asymptotic)",
    )
