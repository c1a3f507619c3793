"""The flat separable engine and the in-place verification fields, bit for bit.

``apply_stencil_block`` sweeps a padded block as one flat buffer, reads a
whole C-ordered field in place and turns a unit single-tap factor into an
index offset. Each of these must leave every value bit-identical to the
literal strided sweep (``test_kernel_digests._reference_block``), whatever
the block, the taps and the layout of ``u``, and must write nothing of
``out`` outside the block. The same holds for Step 3 as a buffer flip and
for the verification fields, which are built in place but must equal the
whole-array expressions they replace.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.data import RankData, local_initial_condition
from repro.decomp.partition import Subdomain
from repro.machines import LENS
from repro.stencil.analytic import error_norms
from repro.stencil.arena import ScratchArena
from repro.stencil import kernels
from repro.stencil.coefficients import (
    StencilCoefficients,
    lax_wendroff_1d,
    tensor_product_coefficients,
)
from repro.stencil.grid import Grid3D, gaussian_initial_condition
from repro.stencil.kernels import (
    SCRATCH_BUDGET,
    _geometry,
    advance,
    apply_stencil_block,
    interior,
)
from test_kernel_digests import RANK, _random_field, _reference_block, tiling_blocks

#: unit taps at each offset (λ = ±1 and the λ = 0 identity), an all-zero
#: factor and -0.0 entries, beside generic taps
_SPECIAL_FACTORS = (
    (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0), (-0.0, 1.0, -0.0), (-0.0, 0.0, 0.0), (1.0, -0.0, 0.0),
    (-1.0, 0.0, 0.0), (0.5, 0.0, 0.0),
)
_factor = st.one_of(
    st.sampled_from(_SPECIAL_FACTORS).map(np.array),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.3, -0.7]),
             min_size=3, max_size=3).map(np.array),
    st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3,
             max_size=3).map(np.array),
)
_factors = st.tuples(_factor, _factor, _factor)

_TILING_BLOCKS = sorted({b for blocks in tiling_blocks().values() for b in blocks})


def _coeffs(factors) -> StencilCoefficients:
    return StencilCoefficients(
        a=np.einsum("i,j,k->ijk", *factors), velocity=(0.0, 0.0, 0.0),
        nu=1.0, factors=factors,
    )


def _layouts(u: np.ndarray) -> dict:
    """``u`` as C-ordered, Fortran-ordered and strided-view fields."""
    wide = np.full(u.shape[:2] + (2 * u.shape[2],), np.nan)
    strided = wide[:, :, ::2]
    strided[...] = u
    return {"c": u, "fortran": np.asfortranarray(u), "strided": strided}


def _check(u, factors, lo, hi):
    """The engine equals the strided reference on ``[lo, hi)`` and leaves a
    sentinel ``out`` untouched outside it."""
    coeffs = _coeffs(factors)
    sentinel = np.random.default_rng(1).standard_normal(u.shape)
    sentinel[0, 0, 0] = np.nan
    got, want = sentinel.copy(), sentinel.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        apply_stencil_block(u, coeffs, got, lo, hi, arena=ScratchArena())
        _reference_block(np.ascontiguousarray(u), coeffs.factors, want, lo, hi)
    assert got.tobytes() == want.tobytes()
    block = tuple(slice(1 + l, 1 + h) for l, h in zip(lo, hi))
    outside = np.ones(u.shape, dtype=bool)
    outside[block] = False
    assert got[outside].tobytes() == sentinel[outside].tobytes()


@st.composite
def _random_blocks(draw):
    shape = tuple(draw(st.integers(1, 14)) for _ in range(3))
    lo = tuple(draw(st.integers(0, n - 1)) for n in shape)
    hi = tuple(draw(st.integers(l + 1, n)) for l, n in zip(lo, shape))
    return shape, lo, hi


@settings(max_examples=150, deadline=None)
@given(_random_blocks(), _factors, st.integers(0, 2**32 - 1))
def test_random_blocks_match_reference(block, factors, seed):
    shape, lo, hi = block
    _check(_random_field(shape, seed), factors, lo, hi)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_TILING_BLOCKS), _factors)
def test_tiling_blocks_match_reference(block, factors):
    """Every block of the nonblocking and hybrid tilings of a 48^3 rank."""
    _check(_random_field(RANK, 48), factors, *block)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    _factors,
    st.sampled_from(["c", "fortran", "strided"]),
    st.integers(0, 2**32 - 1),
)
def test_whole_fields_match_reference(shape, factors, layout, seed):
    """Whole fields: read in place when C-ordered with x, y, z storage
    order, copied in otherwise, the same numbers either way."""
    u = _layouts(_random_field(shape, seed))[layout]
    _check(u, factors, (0, 0, 0), shape)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("taps", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
@pytest.mark.parametrize("whole", [True, False])
def test_unit_tap_is_an_exact_shift(axis, taps, whole):
    """A unit tap at offset ∓1 on one axis (λ = ±1) with identity factors
    elsewhere shifts the field by exactly one point along that axis."""
    shape = (6, 7, 8)
    u = _random_field(shape, 5)
    factors = [np.array([0.0, 1.0, 0.0]) for _ in range(3)]
    factors[axis] = np.array(taps)
    lo, hi = ((0, 0, 0), shape) if whole else ((1, 2, 1), (5, 6, 7))
    _check(u, tuple(factors), lo, hi)
    got = np.zeros_like(u)
    apply_stencil_block(u, _coeffs(tuple(factors)), got, lo, hi, arena=ScratchArena())
    shift = [0, 0, 0]
    shift[axis] = -1 if taps[0] == 1.0 else 1
    block = tuple(slice(1 + l, 1 + h) for l, h in zip(lo, hi))
    source = tuple(slice(1 + l + d, 1 + h + d) for l, h, d in zip(lo, hi, shift))
    assert got[block].tobytes() == u[source].tobytes()


@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
def test_whole_field_steady_state_allocates_no_field(layout):
    """A warm whole-field apply allocates nothing field-sized: a C-ordered
    field is read in place, any other layout is copied into the arena."""
    shape = (24, 24, 24)
    u = _layouts(_random_field(shape, 3))[layout]
    coeffs = _coeffs((np.array([0.2, 0.5, 0.3]),) * 3)
    out = np.zeros(u.shape)
    arena = ScratchArena()
    apply_stencil_block(u, coeffs, out, (0, 0, 0), shape, arena=arena)
    tracemalloc.start()
    try:
        apply_stencil_block(u, coeffs, out, (0, 0, 0), shape, arena=arena)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < u.size * 8 // 10


def test_arena_holds_no_copy_buffer_for_an_in_place_field():
    """An in-place whole field leases only what its sweeps write: less
    than three padded fields, and less than a copied field needs."""
    shape = (12, 12, 12)
    coeffs = _coeffs((np.array([0.2, 0.5, 0.3]),) * 3)
    u = _random_field(shape, 4)
    sizes = {}
    for layout, field in (("c", u), ("fortran", np.asfortranarray(u))):
        arena = ScratchArena()
        apply_stencil_block(field, coeffs, np.zeros(u.shape), (0, 0, 0), shape,
                            arena=arena)
        sizes[layout] = arena.nbytes
    assert sizes["c"] < sizes["fortran"] <= 3 * u.nbytes


# -- chunked sweeps under the scratch budget -----------------------------------

#: 1-D Lax-Wendroff factors at Courant numbers of both signs, unit ones
#: (λ = ±1, a unit tap) and zero (the identity) among them
_lw_factor = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]),
    st.floats(-1.0, 1.0, allow_nan=False),
).map(lambda c: np.array(lax_wendroff_1d(c, 1.0)))
_chunk_factors = st.one_of(_factors, st.tuples(_lw_factor, _lw_factor, _lw_factor))


@st.composite
def _chunked_cases(draw):
    """A block, and a budget below its padded box: one outer plane, a few
    hundred points, or ``k`` output planes per chunk (plus some points)."""
    shape = tuple(draw(st.integers(2, 13)) for _ in range(3))
    lo = tuple(draw(st.integers(0, n - 1)) for n in shape)
    hi = tuple(draw(st.integers(l + 1, n)) for l, n in zip(lo, shape))
    geo = _geometry(tuple(h - l for l, h in zip(lo, hi)))
    plane = geo.strides[geo.outer]
    depth = hi[geo.outer] - lo[geo.outer]
    budget = draw(st.one_of(
        st.just(plane),
        st.integers(200, 400),
        st.tuples(st.integers(1, max(1, depth - 1)), st.integers(0, plane - 1))
        .map(lambda kr: (kr[0] + 2) * plane + kr[1]),
    ))
    return shape, lo, hi, budget


def _chunked_sweep(u, coeffs, lo, hi, budget, sentinel):
    """``out`` and the arena after one sweep of ``[lo, hi)`` under ``budget``."""
    out = sentinel.copy()
    arena = ScratchArena()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "SCRATCH_BUDGET", budget)
        with np.errstate(invalid="ignore", over="ignore"):
            apply_stencil_block(u, coeffs, out, lo, hi, arena=arena)
    return out, arena


def _max_lease(arena: ScratchArena) -> int:
    """The longest lease the arena served (its buffers grow to fit one)."""
    return max((b.size for b in arena._bufs.values()), default=0)


@settings(max_examples=200, deadline=None)
@given(_chunked_cases(), _chunk_factors, st.sampled_from(["c", "fortran", "strided"]),
       st.integers(0, 2**32 - 1))
@example(((12, 5, 6), (0, 0, 0), (12, 5, 6), 4 * 8 * 14), (np.array([0.2, 0.5, 0.3]),) * 3,
         "c", 0)  # 5 outer planes in chunks of 2: the last chunk holds one
@example(((9, 9, 9), (1, 0, 2), (8, 9, 9), 121), (np.array([1.0, 0.0, 0.0]),) * 3,
         "fortran", 1)  # a chunk of one plane, three unit-tap offsets
def test_chunked_sweeps_match_one_chunk(case, factors, layout, seed):
    """A box over the budget is swept in chunks of outer planes, bit for bit
    what one chunk gives, with no lease over max(budget, 3 outer planes)."""
    shape, lo, hi, budget = case
    geo = _geometry(tuple(h - l for l, h in zip(lo, hi)))
    assume(geo.size > budget)
    u = _layouts(_random_field(shape, seed))[layout]
    coeffs = _coeffs(factors)
    sentinel = np.random.default_rng(seed).standard_normal(u.shape)
    got, arena = _chunked_sweep(u, coeffs, lo, hi, budget, sentinel)
    want, _ = _chunked_sweep(u, coeffs, lo, hi, geo.size, sentinel)
    assert got.tobytes() == want.tobytes()
    assert _max_lease(arena) <= max(budget, 3 * geo.strides[geo.outer])


def test_the_budget_keeps_every_rank_block_whole():
    """Every block of a 48^3 rank, and the rank itself, fits the budget, so
    the functional runs sweep each block in one piece."""
    blocks = {b for tiling in tiling_blocks().values() for b in tiling}
    blocks.add(((0, 0, 0), RANK))
    for lo, hi in blocks:
        assert _geometry(tuple(h - l for l, h in zip(lo, hi))).size <= SCRATCH_BUDGET


def test_a_96_cube_holds_the_budget():
    """A 96^3 advance (read in place) and a 96^3 copy-in block lease at
    most the budget each: about 3 MB in all, not three padded fields."""
    coeffs = tensor_product_coefficients((0.9, -0.6, 0.4), 1.0)
    u = _random_field((96, 96, 96), 6)
    arena = ScratchArena()
    advance(u, coeffs, arena=arena)
    assert _max_lease(arena) <= SCRATCH_BUDGET
    assert arena.nbytes <= 3 * 8 * SCRATCH_BUDGET
    arena = ScratchArena()
    apply_stencil_block(u, coeffs, np.zeros_like(u), (1, 0, 0), (96, 96, 95),
                        arena=arena)
    assert "sep.a" in arena._bufs  # copied in
    assert _max_lease(arena) <= SCRATCH_BUDGET
    assert arena.nbytes <= 3 * 8 * SCRATCH_BUDGET


# -- Step 3 as a buffer flip ---------------------------------------------------


def test_copy_state_flips_without_aliasing():
    shape = (6, 5, 4)
    cfg = RunConfig(machine=LENS, implementation="bulk", cores=16, domain=shape,
                    functional=True, network="full")
    data = RankData(cfg, Subdomain(0, (0, 0, 0), (0, 0, 0), shape))
    buffers = {id(data.u), id(data.unew)}
    for _ in range(4):
        data.fill_halo_local()
        data.apply_all()
        new = interior(data.unew).copy()
        data.copy_state()
        assert data.u is not data.unew
        assert not np.shares_memory(data.u, data.unew)
        assert {id(data.u), id(data.unew)} == buffers
        assert interior(data.u).tobytes() == new.tobytes()


# -- verification fields built in place ----------------------------------------


def _literal_gaussian(grid, sigma, center, amplitude):
    x, y, z = grid.mesh()
    L = grid.length

    def wrapped_sq(coord, c0):
        d = np.abs(coord - c0)
        d = np.minimum(d, L - d)
        return d * d

    s2 = (sigma * L) ** 2
    r2 = wrapped_sq(x, center[0]) + wrapped_sq(y, center[1]) + wrapped_sq(z, center[2])
    return amplitude * np.exp(-r2 / (2.0 * s2))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(3, 12), st.integers(3, 12), st.integers(3, 12)),
    st.floats(0.02, 0.5),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.sampled_from([1.0, 2.5, -0.5, 1e-3]),
)
def test_gaussian_matches_the_whole_array_expression(n, sigma, center, amplitude):
    grid = Grid3D(n)
    got = gaussian_initial_condition(grid, sigma=sigma, center=center,
                                     amplitude=amplitude)
    want = _literal_gaussian(grid, sigma, center, amplitude)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_local_initial_condition_matches_the_global_field():
    domain = (10, 9, 8)
    cfg = RunConfig(machine=LENS, implementation="bulk", cores=16, domain=domain)
    want = _literal_gaussian(Grid3D(domain), cfg.sigma, (0.5,) * 3, 1.0)
    sub = Subdomain(0, (0, 0, 0), (3, 2, 1), (4, 5, 6))
    got = local_initial_condition(cfg, sub)
    assert got.tobytes() == want[3:7, 2:7, 1:7].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["c", "strided"]))
def test_error_norms_match_the_literal_norms(seed, layout):
    rng = np.random.default_rng(seed)
    exact = rng.standard_normal((7, 6, 5))
    computed = _layouts(exact + 1e-3 * rng.standard_normal(exact.shape))[layout]
    diff = computed - exact
    want = {
        "l1": float(np.abs(diff).sum() / diff.size),
        "l2": float(np.sqrt((diff * diff).sum() / diff.size)),
        "linf": float(np.abs(diff).max()),
    }
    assert error_norms(computed, exact) == want
