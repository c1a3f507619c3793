"""Cross-commit bit-identity pins for the functional stencil numerics.

The block ≡ full-field tests compare the kernel with itself, and the golden
experiment dump reaches the kernel only through ``convergence``. The
sha256 digests below were taken from the strided full-field sweep engine
that preceded the compact-scratch one; any change to the per-point ufunc
sequence (tap order, fused or reassociated arithmetic, a skipped zero tap
now multiplied) changes them:

* (a) ``advance`` on odd non-cubic fields, for three coefficient sets
  (one with zero taps and unit CFL);
* (b) every block of the nonblocking tiling (z-thirds + six slabs) and of
  the hybrid wall tiling (wall interiors + six slabs + GPU block interior
  and shell) on a 48^3 rank;
* (c) the global fields of all nine paper implementations on small odd
  domains.

A hypothesis property also checks the block engine against a test-local
copy of that strided reference on random blocks, taps and special values
(zero taps, ±0.0, ±inf).

To re-derive a digest, run the ``*_digests`` helpers of this module.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.data import RankData
from repro.core.gpu_common import inner_boundary_slabs
from repro.core.runner import run
from repro.decomp.boxdecomp import BoxDecomposition
from repro.decomp.partition import Subdomain
from repro.machines import JAGUARPF, LENS, YONA
from repro.stencil.arena import ScratchArena
from repro.stencil.coefficients import (
    StencilCoefficients,
    max_stable_nu,
    tensor_product_coefficients,
)
from repro.stencil.grid import allocate_field
from repro.stencil.kernels import advance, apply_stencil_block

# -- (a) advance -------------------------------------------------------------

ADVANCE_SHAPES = ((19, 23, 17), (7, 5, 11))
ADVANCE_COEFFS = {
    "generic": ((0.9, -0.6, 0.4), None),
    "unit_cfl": ((1.0, 0.0, 0.0), 1.0),  # taps (1,0,0), (0,1,0), (0,1,0)
    "mixed": ((0.0, -1.0, 0.5), 1.0),  # zero, unit-CFL and generic taps
}
ADVANCE_STEPS = 3
ADVANCE_DIGESTS = {
    "generic":
        "8e7f58f765f365b4910656ae0cfc2bab847c9780c476f76ed84e949aebaf9f46",
    "unit_cfl":
        "ff3fefb79bd89da7c2dbbe83a930f75b2322d2f078bbd8edced249929069a0d6",
    "mixed":
        "e40c50dbc5a6417309b5c6d8f38e7bfe9af272737b9867e817c6804034854fd8",
}

# -- (b) block tilings on a 48^3 rank ----------------------------------------

RANK = (48, 48, 48)
TILING_VELOCITY = (0.9, -0.6, 0.4)
TILING_DIGESTS = {
    "nonblocking":
        "d4cec86ce654d44876b6a07081f27c654a7cb1e5eac76eceaf2834f7265cdb07",
    "hybrid_t1":
        "31460a1e4772d256e27d113b75f8ef590659c6094c3987f78f6aa0288ee1ddb4",
    "hybrid_t2":
        "09b9ba67e261efeb3e6b368b24e91cb3fff244929ae2b5c012b0551fb7d084c6",
    "hybrid_t3":
        "1aa65c24e7fae6d01ddca330a0cfa51828433007f7e29bedd0013f9a3e97b193",
}

# -- (c) the nine implementations --------------------------------------------

IMPL_RUNS = {
    # impl: (machine, cores, threads, domain)
    "single": (JAGUARPF, 12, 12, (21, 19, 17)),
    "bulk": (JAGUARPF, 48, 6, (21, 19, 17)),
    "nonblocking": (JAGUARPF, 24, 6, (21, 19, 17)),
    "thread_overlap": (JAGUARPF, 12, 3, (21, 19, 17)),
    "gpu_resident": (YONA, 12, 12, (21, 19, 17)),
    "gpu_bulk": (LENS, 16, 8, (21, 19, 17)),
    "gpu_streams": (YONA, 12, 6, (21, 19, 17)),
    "hybrid_bulk": (YONA, 12, 6, (23, 21, 19)),
    "hybrid_overlap": (LENS, 16, 2, (23, 21, 19)),
}
IMPL_STEPS = 3
IMPL_DIGESTS = {
    "single":
        "bcfe632802405641b137cfba800de11760d13d83bc2644152dea253aa2802559",
    "bulk":
        "bcfe632802405641b137cfba800de11760d13d83bc2644152dea253aa2802559",
    "nonblocking":
        "bcfe632802405641b137cfba800de11760d13d83bc2644152dea253aa2802559",
    "thread_overlap":
        "bcfe632802405641b137cfba800de11760d13d83bc2644152dea253aa2802559",
    "gpu_resident":
        "bcfe632802405641b137cfba800de11760d13d83bc2644152dea253aa2802559",
    "gpu_bulk":
        "bcfe632802405641b137cfba800de11760d13d83bc2644152dea253aa2802559",
    "gpu_streams":
        "bcfe632802405641b137cfba800de11760d13d83bc2644152dea253aa2802559",
    "hybrid_bulk":
        "4cdb8020df746fc80e6a3ab7be4284f5a050ebd35ac77d05fbf66e93ee02d6e5",
    "hybrid_overlap":
        "4cdb8020df746fc80e6a3ab7be4284f5a050ebd35ac77d05fbf66e93ee02d6e5",
}


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _coeffs(velocity, nu) -> StencilCoefficients:
    if nu is None:
        nu = 0.8 * max_stable_nu(velocity)
    return tensor_product_coefficients(velocity, nu)


def _random_field(shape, seed: int) -> np.ndarray:
    u = allocate_field(shape)
    u[...] = np.random.default_rng(seed).standard_normal(u.shape)
    return u


def advance_digests() -> dict:
    """One digest per coefficient set over every ``ADVANCE_SHAPES`` field."""
    result = {}
    for name, (velocity, nu) in ADVANCE_COEFFS.items():
        coeffs = _coeffs(velocity, nu)
        fields = []
        for seed, shape in enumerate(ADVANCE_SHAPES):
            u = advance(_random_field(shape, seed), coeffs, steps=ADVANCE_STEPS,
                        arena=ScratchArena())
            fields.append(u)
        result[name] = _sha(fields)
    return result


def tiling_blocks() -> dict:
    """The nonblocking and hybrid (thickness 1-3) tilings of one rank."""
    cfg = RunConfig(machine=LENS, implementation="nonblocking", cores=16,
                    domain=RANK)
    rank = RankData(cfg, Subdomain(0, (0, 0, 0), (0, 0, 0), RANK))
    tilings = {"nonblocking": rank.core_thirds() + rank.boundary_slabs()}
    for t in (1, 2, 3):
        box = BoxDecomposition(RANK, t)
        lo, hi = box.block_lo, box.block_hi
        gpu = ((lo[0] + 1, lo[1] + 1, lo[2] + 1), (hi[0] - 1, hi[1] - 1, hi[2] - 1))
        tilings[f"hybrid_t{t}"] = (
            [box.wall_interior_box(w) for w in box.walls()]
            + rank.boundary_slabs()
            + [gpu]
            + [b for _, b in inner_boundary_slabs(box)]
        )
    return tilings


def tiling_digests() -> dict:
    """One digest per tiling over every block's result, in tiling order."""
    coeffs = _coeffs(TILING_VELOCITY, None)
    u = _random_field(RANK, 48)
    result = {}
    for name, blocks in tiling_blocks().items():
        out = np.zeros_like(u)
        arena = ScratchArena()
        parts = []
        for lo, hi in blocks:
            apply_stencil_block(u, coeffs, out, lo, hi, arena=arena)
            parts.append(out[tuple(slice(1 + l, 1 + h) for l, h in zip(lo, hi))])
        result[name] = _sha(parts)
    return result


def implementation_digests() -> dict:
    """One digest per implementation over its gathered global field."""
    result = {}
    for impl, (machine, cores, threads, domain) in IMPL_RUNS.items():
        cfg = RunConfig(
            machine=machine, implementation=impl, cores=cores,
            threads_per_task=threads, steps=IMPL_STEPS, domain=domain,
            velocity=(1.0, 0.9, 0.8), box_thickness=2, functional=True,
            network="full",
        )
        result[impl] = _sha([run(cfg).global_field])
    return result


class TestDigests:
    def test_advance(self):
        assert advance_digests() == ADVANCE_DIGESTS

    def test_block_tilings(self):
        assert tiling_digests() == TILING_DIGESTS

    def test_tilings_cover_the_rank(self):
        """Each tiling computes every interior point exactly once."""
        for name, blocks in tiling_blocks().items():
            hits = np.zeros(RANK, dtype=int)
            for lo, hi in blocks:
                hits[tuple(slice(l, h) for l, h in zip(lo, hi))] += 1
            assert (hits == 1).all(), name

    def test_implementations(self):
        assert implementation_digests() == IMPL_DIGESTS


# -- hypothesis: block engine vs the strided full-field reference -------------


def _reference_sweep(src, dst, taps, axis, lo, hi, tap_buf):
    """The strided full-field 3-tap sweep the block engine replaced."""
    base = tuple(slice(l, h) for l, h in zip(lo, hi))
    acc = dst[base]
    nonzero = [(d, float(c)) for d, c in zip((-1, 0, 1), taps) if c != 0.0]
    if not nonzero:
        acc.fill(0.0)
        return

    def shifted(d):
        sl = list(base)
        sl[axis] = slice(lo[axis] + d, hi[axis] + d)
        return src[tuple(sl)]

    d0, c0 = nonzero[0]
    np.multiply(shifted(d0), c0, out=acc)
    if len(nonzero) > 1:
        tap = tap_buf[base]
        for d, c in nonzero[1:]:
            np.multiply(shifted(d), c, out=tap)
            np.add(acc, tap, out=acc)


def _reference_block(u, factors, out, lo, hi):
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    ax, ay, az = factors
    t1, t2, tap = (np.empty_like(u) for _ in range(3))
    _reference_sweep(u, t1, ax, 0, (1 + x0, y0, z0), (1 + x1, y1 + 2, z1 + 2), tap)
    _reference_sweep(t1, t2, ay, 1, (1 + x0, 1 + y0, z0), (1 + x1, 1 + y1, z1 + 2), tap)
    _reference_sweep(t2, out, az, 2, (1 + x0, 1 + y0, 1 + z0), (1 + x1, 1 + y1, 1 + z1), tap)


_tap = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)
_value = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _cases(draw):
    shape = tuple(draw(st.integers(1, 20)) for _ in range(3))
    lo = tuple(draw(st.integers(0, n - 1)) for n in shape)
    hi = tuple(draw(st.integers(l + 1, n)) for l, n in zip(lo, shape))
    factors = tuple(
        np.array([draw(_tap) for _ in range(3)]) for _ in range(3)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    specials = draw(st.lists(st.tuples(st.integers(0, 10**6), _value), max_size=6))
    return shape, lo, hi, factors, seed, specials


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_block_engine_matches_strided_reference(case):
    shape, lo, hi, factors, seed, specials = case
    u = _random_field(shape, seed)
    for index, value in specials:
        u.flat[index % u.size] = value
    coeffs = StencilCoefficients(
        a=np.einsum("i,j,k->ijk", *factors), velocity=(0.0, 0.0, 0.0),
        nu=1.0, factors=factors,
    )
    got = np.random.default_rng(seed).standard_normal(u.shape)
    want = got.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        apply_stencil_block(u, coeffs, got, lo, hi, arena=ScratchArena())
        _reference_block(u, coeffs.factors, want, lo, hi)
    assert got.tobytes() == want.tobytes()
