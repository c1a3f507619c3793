"""Stencil coefficients for the paper's 3-D Lax-Wendroff scheme (Table I).

The paper derives a 3x3x3 stencil for

    du/dt + c . grad(u) = 0

that cancels all Taylor terms through O(Delta^2). The resulting table of 27
coefficients (paper Table I) is exactly the tensor product of the classic
1-D Lax-Wendroff coefficients

    A_{-1}(c) = c*nu*(1 + c*nu)/2
    A_{ 0}(c) = 1 - (c*nu)^2
    A_{+1}(c) = c*nu*(c*nu - 1)/2

with nu = Delta/delta (time step over grid spacing):

    a_{ijk} = A_i(c_x) * A_j(c_y) * A_k(c_z)

Every undamaged entry of the supplied Table I matches this product; see
DESIGN.md for notes on the two OCR-damaged rows. We provide both forms and
test them against each other.

The scheme is stable for ``nu * max(|c_x|, |c_y|, |c_z|) <= 1`` (the paper's
"nu <= max{...}" is a typo for this CFL condition); :func:`amplification_factor`
lets tests verify this via the von Neumann symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FLOPS_PER_POINT",
    "StencilCoefficients",
    "lax_wendroff_1d",
    "factor_rank1",
    "tensor_product_coefficients",
    "table1_coefficients",
    "max_stable_nu",
    "amplification_factor",
]

#: Flops per grid point per step, as counted by the paper for its GF metric:
#: Equation 2 has 27 multiplications and 26 additions.
FLOPS_PER_POINT = 53


def lax_wendroff_1d(c: float, nu: float) -> Tuple[float, float, float]:
    """1-D Lax-Wendroff coefficients ``(A_-1, A_0, A_+1)``.

    ``c`` is the (signed) velocity component and ``nu = Delta/delta``.
    """
    cn = c * nu
    return (cn * (1.0 + cn) / 2.0, 1.0 - cn * cn, cn * (cn - 1.0) / 2.0)


def factor_rank1(
    a: np.ndarray, rtol: float = 1e-12, atol: float = 1e-14
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Attempt an exact rank-1 (separable) factorization of a 3x3x3 tensor.

    Returns 1-D factor triples ``(ax, ay, az)`` with
    ``a[i, j, k] == ax[i] * ay[j] * az[k]`` (within ``rtol``/``atol``), or
    ``None`` when ``a`` is not separable. For a true rank-1 tensor the
    factors are recovered from the pivot cross-sections

    .. math:: a_{ijk} = a_{i j_0 k_0} \\, a_{i_0 j k_0} \\, a_{i_0 j_0 k} / p^2

    where ``p = a[i0, j0, k0]`` is the largest-magnitude entry. The returned
    factors are only determined up to scale (only their outer product is
    meaningful); :func:`tensor_product_coefficients` bypasses this recovery
    and stores the canonical 1-D Lax-Wendroff triples directly.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (3, 3, 3):
        raise ValueError(f"expected a (3,3,3) tensor, got {a.shape}")
    scale = float(np.abs(a).max())
    if scale == 0.0:
        z = np.zeros(3)
        return z, z.copy(), z.copy()
    i0, j0, k0 = np.unravel_index(int(np.abs(a).argmax()), a.shape)
    p = a[i0, j0, k0]
    ax = a[:, j0, k0].copy()
    ay = a[i0, :, k0] / p
    az = a[i0, j0, :] / p
    recon = np.einsum("i,j,k->ijk", ax, ay, az)
    if np.allclose(recon, a, rtol=rtol, atol=atol * scale):
        return ax, ay, az
    return None


@dataclass(frozen=True)
class StencilCoefficients:
    """The 27 coefficients ``a[i+1, j+1, k+1] = a_{ijk}`` for Equation 2.

    Attributes
    ----------
    a:
        ``(3, 3, 3)`` float array indexed by offset+1 in each dimension.
    velocity:
        The velocity ``(c_x, c_y, c_z)`` the coefficients were built for.
    nu:
        The ratio ``Delta/delta`` they were built for.
    factors:
        Optional 1-D factor triples ``(ax, ay, az)`` with
        ``a[i, j, k] = ax[i] * ay[j] * az[k]``. When present, the stencil is
        *separable* and :mod:`repro.stencil.kernels` applies it as three 1-D
        sweeps instead of the dense 27-point sum. Populated automatically:
        :func:`tensor_product_coefficients` stores the exact 1-D
        Lax-Wendroff triples, and any other construction (e.g. the literal
        Table I transcription) gets a :func:`factor_rank1` recovery attempt
        with a dense (``factors=None``) fallback for non-separable tensors.
        The stored factor arrays are read-only.
    taps:
        ``factors`` as three 3-tuples of floats (``None`` when not
        separable), derived once; the separable engine keys plans by them.
    """

    a: np.ndarray
    velocity: Tuple[float, float, float]
    nu: float
    factors: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.a.shape != (3, 3, 3):
            raise ValueError(f"coefficient array must be (3,3,3), got {self.a.shape}")
        if self.factors is None:
            # Rank-1 recovery attempt; stays None for non-separable tensors
            # (the kernels then fall back to the dense 27-point reference).
            factors = factor_rank1(self.a)
        else:
            factors = tuple(np.array(f, dtype=np.float64) for f in self.factors)
            for f in factors:
                if f.shape != (3,):
                    raise ValueError(f"factor triples must be (3,), got {f.shape}")
        for f in factors or ():
            f.setflags(write=False)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "taps", factors and tuple(
            tuple(f.tolist()) for f in factors))

    @property
    def is_separable(self) -> bool:
        """True when 1-D factor triples are available (tensor-product form)."""
        return self.factors is not None

    def __getitem__(self, offsets: Tuple[int, int, int]) -> float:
        """Coefficient ``a_{ijk}`` for offsets ``i, j, k`` in ``{-1, 0, +1}``."""
        i, j, k = offsets
        return float(self.a[i + 1, j + 1, k + 1])

    @property
    def consistency_sum(self) -> float:
        """Sum of all coefficients; exactly 1 for a consistent scheme."""
        return float(self.a.sum())

    def items(self):
        """Iterate ``((i, j, k), a_ijk)`` over all 27 offsets."""
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                for k in (-1, 0, 1):
                    yield (i, j, k), float(self.a[i + 1, j + 1, k + 1])


def tensor_product_coefficients(
    velocity: Sequence[float], nu: float
) -> StencilCoefficients:
    """Build Table I via the tensor product of 1-D Lax-Wendroff coefficients."""
    cx, cy, cz = (float(v) for v in velocity)
    ax = np.array(lax_wendroff_1d(cx, nu))
    ay = np.array(lax_wendroff_1d(cy, nu))
    az = np.array(lax_wendroff_1d(cz, nu))
    a = np.einsum("i,j,k->ijk", ax, ay, az)
    return StencilCoefficients(
        a=a, velocity=(cx, cy, cz), nu=float(nu), factors=(ax, ay, az)
    )


def table1_coefficients(velocity: Sequence[float], nu: float) -> StencilCoefficients:
    """Build Table I from the paper's explicit per-entry formulas.

    This is a literal transcription of the 27 rows of Table I (with the two
    OCR-damaged rows restored from the table's own x/y/z symmetry; see
    DESIGN.md). It exists to validate the transcription against
    :func:`tensor_product_coefficients` — tests assert exact agreement.
    """
    cx, cy, cz = (float(v) for v in velocity)
    v = float(nu)
    a = np.empty((3, 3, 3))

    def put(i: int, j: int, k: int, value: float) -> None:
        a[i + 1, j + 1, k + 1] = value

    # Row-by-row transcription of Table I. v is the paper's nu.
    put(-1, -1, -1, cx * cy * cz * v**3 * (1 + cx * v) * (1 + cy * v) * (1 + cz * v) / 8)
    put(-1, -1, 0, -2 * cx * cy * v**2 * (1 + cx * v) * (1 + cy * v) * (cz**2 * v**2 - 1) / 8)
    put(-1, -1, 1, cx * cy * cz * v**3 * (1 + cx * v) * (1 + cy * v) * (cz * v - 1) / 8)
    put(-1, 0, -1, -2 * cx * cz * v**2 * (1 + cx * v) * (1 + cz * v) * (cy**2 * v**2 - 1) / 8)
    put(-1, 0, 0, 4 * cx * v * (1 + cx * v) * (cy**2 * v**2 - 1) * (cz**2 * v**2 - 1) / 8)
    put(-1, 0, 1, -2 * cx * cz * v**2 * (1 + cx * v) * (-1 + cz * v) * (-1 + cy**2 * v**2) / 8)
    put(-1, 1, -1, cx * cy * cz * v**3 * (1 + cx * v) * (-1 + cy * v) * (1 + cz * v) / 8)
    put(-1, 1, 0, -2 * cx * cy * v**2 * (1 + cx * v) * (-1 + cy * v) * (-1 + cz**2 * v**2) / 8)
    put(-1, 1, 1, cx * cy * cz * v**3 * (1 + cx * v) * (-1 + cy * v) * (-1 + cz * v) / 8)
    put(0, -1, -1, -2 * cy * cz * v**2 * (1 + cy * v) * (1 + cz * v) * (-1 + cx**2 * v**2) / 8)
    put(0, -1, 0, 4 * cy * v * (1 + cy * v) * (-1 + cx**2 * v**2) * (-1 + cz**2 * v**2) / 8)
    put(0, -1, 1, -2 * cy * cz * v**2 * (1 + cy * v) * (-1 + cz * v) * (-1 + cx**2 * v**2) / 8)
    put(0, 0, -1, 4 * cz * v * (1 + cz * v) * (-1 + cx**2 * v**2) * (-1 + cy**2 * v**2) / 8)
    put(0, 0, 0, -8 * (-1 + cx**2 * v**2) * (-1 + cy**2 * v**2) * (-1 + cz**2 * v**2) / 8)
    put(0, 0, 1, 4 * cz * v * (-1 + cz * v) * (-1 + cx**2 * v**2) * (-1 + cy**2 * v**2) / 8)
    put(0, 1, -1, -2 * cy * cz * v**2 * (-1 + cy * v) * (1 + cz * v) * (-1 + cx**2 * v**2) / 8)
    put(0, 1, 0, 4 * cy * v * (-1 + cy * v) * (-1 + cx**2 * v**2) * (-1 + cz**2 * v**2) / 8)
    put(0, 1, 1, -2 * cy * cz * v**2 * (-1 + cy * v) * (-1 + cz * v) * (-1 + cx**2 * v**2) / 8)
    put(1, -1, -1, cx * cy * cz * v**3 * (-1 + cx * v) * (1 + cy * v) * (1 + cz * v) / 8)
    put(1, -1, 0, -2 * cx * cy * v**2 * (-1 + cx * v) * (1 + cy * v) * (-1 + cz**2 * v**2) / 8)
    put(1, -1, 1, cx * cy * cz * v**3 * (-1 + cx * v) * (1 + cy * v) * (-1 + cz * v) / 8)
    put(1, 0, -1, -2 * cx * cz * v**2 * (-1 + cx * v) * (1 + cz * v) * (-1 + cy**2 * v**2) / 8)
    put(1, 0, 0, 4 * cx * v * (-1 + cx * v) * (-1 + cy**2 * v**2) * (-1 + cz**2 * v**2) / 8)
    put(1, 0, 1, -2 * cx * cz * v**2 * (-1 + cx * v) * (-1 + cz * v) * (-1 + cy**2 * v**2) / 8)
    put(1, 1, -1, cx * cy * cz * v**3 * (-1 + cx * v) * (-1 + cy * v) * (1 + cz * v) / 8)
    put(1, 1, 0, -2 * cx * cy * v**2 * (-1 + cx * v) * (-1 + cy * v) * (-1 + cz**2 * v**2) / 8)
    put(1, 1, 1, cx * cy * cz * v**3 * (-1 + cx * v) * (-1 + cy * v) * (-1 + cz * v) / 8)

    return StencilCoefficients(a=a, velocity=(cx, cy, cz), nu=v)


def max_stable_nu(velocity: Sequence[float]) -> float:
    """Largest stable ``nu = Delta/delta`` for velocity ``c``.

    The tensor-product Lax-Wendroff scheme is von Neumann stable iff
    ``nu * max_i |c_i| <= 1``. The paper runs at this maximum stable value.
    """
    cmax = max(abs(float(v)) for v in velocity)
    if cmax == 0:
        raise ValueError("velocity is zero; any nu is stable and none advects")
    return 1.0 / cmax


def amplification_factor(
    velocity: Sequence[float], nu: float, theta: Sequence[float]
) -> complex:
    """Von Neumann symbol g(theta) of the scheme at wavenumber angles theta.

    For a Fourier mode ``exp(i (theta_x x + theta_y y + theta_z z)/delta)``
    the scheme multiplies the amplitude by ``g`` each step; ``|g| <= 1`` for
    all theta iff the scheme is stable.
    """
    g = 1.0 + 0.0j
    for c, th in zip(velocity, theta):
        lam = float(c) * float(nu)
        g *= 1.0 - lam * lam * (1.0 - np.cos(th)) - 1j * lam * np.sin(th)
    return complex(g)
