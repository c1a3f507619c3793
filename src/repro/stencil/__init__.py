"""Numerics for 3-D linear advection with the paper's Lax-Wendroff stencil.

This package is the *numerical* core of the reproduction (paper §II):

* :mod:`~repro.stencil.coefficients` — the 27 stencil coefficients of the
  paper's Table I, both as a literal transcription and as the tensor product
  of 1-D Lax-Wendroff coefficients (they are provably the same scheme), plus
  the CFL stability bound.
* :mod:`~repro.stencil.grid` — the periodic cubic grid and the Gaussian
  initial condition at the domain center.
* :mod:`~repro.stencil.kernels` — vectorized NumPy kernels: periodic halo
  fill and the Equation-2 stencil application, run either as three
  separable 1-D Lax-Wendroff sweeps (the fast path, when factor triples
  are available) or as the dense 27-point reference sum; the per-point
  flop count used for the paper's GF metric stays 53 (27 multiplies + 26
  adds), as the paper counts the dense form.
* :mod:`~repro.stencil.arena` — the reusable scratch-buffer arena that
  makes the separable path allocation-free in steady state.
* :mod:`~repro.stencil.analytic` — the exact solution (the Gaussian
  translated at velocity ``c`` with periodic wraparound) and error norms.
* :mod:`~repro.stencil.verification` — the single-domain reference run and
  convergence-order estimation (the unit-CFL exact-shift oracle runs in
  :mod:`repro.validation`).
"""

from repro.stencil.analytic import analytic_solution, error_norms
from repro.stencil.arena import ScratchArena, default_arena, reset_default_arena
from repro.stencil.coefficients import (
    FLOPS_PER_POINT,
    StencilCoefficients,
    amplification_factor,
    factor_rank1,
    lax_wendroff_1d,
    max_stable_nu,
    table1_coefficients,
    tensor_product_coefficients,
)
from repro.stencil.grid import Grid3D, allocate_field, gaussian_initial_condition
from repro.stencil.kernels import (
    advance,
    apply_stencil,
    apply_stencil_block,
    apply_stencil_block_dense,
    apply_stencil_dense,
    fill_periodic_halo,
    interior,
)

__all__ = [
    "FLOPS_PER_POINT",
    "Grid3D",
    "ScratchArena",
    "StencilCoefficients",
    "advance",
    "allocate_field",
    "amplification_factor",
    "analytic_solution",
    "apply_stencil",
    "apply_stencil_block",
    "apply_stencil_block_dense",
    "apply_stencil_dense",
    "default_arena",
    "error_norms",
    "factor_rank1",
    "fill_periodic_halo",
    "gaussian_initial_condition",
    "interior",
    "lax_wendroff_1d",
    "max_stable_nu",
    "reset_default_arena",
    "table1_coefficients",
    "tensor_product_coefficients",
]
