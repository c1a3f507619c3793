"""Property tests: the separable engine ≡ the dense 27-point reference.

The separable path must agree with the dense kernel within ``rtol=1e-12``
on random CFL-valid velocities, and the separable *block* path must be
bit-identical to the separable full-field path (this is what preserves the
repo's cross-implementation bit-exactness oracle). Non-separable
coefficient tensors must fall back to the dense kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.data import RankData
from repro.decomp.boxdecomp import BoxDecomposition
from repro.decomp.partition import Subdomain
from repro.machines import LENS
from repro.stencil.arena import ScratchArena
from repro.stencil.coefficients import (
    StencilCoefficients,
    factor_rank1,
    max_stable_nu,
    table1_coefficients,
    tensor_product_coefficients,
)
from repro.stencil.grid import allocate_field
from repro.stencil.kernels import (
    advance,
    apply_stencil,
    apply_stencil_block,
    apply_stencil_block_dense,
    apply_stencil_dense,
    fill_periodic_halo,
    interior,
)


def make_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    shape = (shape,) * 3 if isinstance(shape, int) else shape
    u = allocate_field(shape)
    interior(u)[...] = rng.random(shape)
    fill_periodic_halo(u)
    return u


nonzero = st.floats(0.1, 1.5).map(lambda v: round(v, 3))
signed = st.tuples(nonzero, st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])
velocities = st.tuples(signed, signed, signed)


class TestSeparableVsDense:
    @given(velocity=velocities, nu_fraction=st.floats(0.2, 1.0), seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_full_field_agreement(self, velocity, nu_fraction, seed):
        """Random CFL-valid velocities: separable ≡ dense at rtol 1e-12."""
        nu = nu_fraction * max_stable_nu(velocity)
        coeffs = tensor_product_coefficients(velocity, nu)
        assert coeffs.is_separable
        u = make_field((9, 8, 10), seed=seed)
        sep = apply_stencil(u, coeffs, method="separable")
        dense = apply_stencil_dense(u, coeffs)
        np.testing.assert_allclose(
            interior(sep), interior(dense), rtol=1e-12, atol=1e-14
        )

    @given(velocity=velocities, steps=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_advance_agreement(self, velocity, steps):
        nu = 0.8 * max_stable_nu(velocity)
        coeffs = tensor_product_coefficients(velocity, nu)
        u_sep = make_field(8, seed=1)
        u_dense = u_sep.copy()
        r_sep = advance(u_sep, coeffs, steps=steps, method="separable")
        r_dense = advance(u_dense, coeffs, steps=steps, method="dense")
        np.testing.assert_allclose(
            interior(r_sep), interior(r_dense), rtol=1e-12, atol=1e-14
        )

    def test_axis_aligned_unit_cfl_exact(self):
        """Unit-CFL shift stays bit-exact on the separable path."""
        coeffs = tensor_product_coefficients((1.0, 0.0, 0.0), 1.0)
        u = make_field(8, seed=2)
        sep = apply_stencil(u, coeffs, method="separable")
        dense = apply_stencil_dense(u, coeffs)
        assert np.array_equal(interior(sep), interior(dense))


class TestBlockEquivalence:
    @given(
        lo=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
        span=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
        velocity=velocities,
    )
    @settings(max_examples=40, deadline=None)
    def test_block_bitwise_equals_full(self, lo, span, velocity):
        """Separable block path ≡ separable full path, bit for bit."""
        n = 10
        hi = tuple(min(n, l + s) for l, s in zip(lo, span))
        coeffs = tensor_product_coefficients(velocity, 0.5 * max_stable_nu(velocity))
        u = make_field(n, seed=4)
        full = apply_stencil(u, coeffs)
        out = np.zeros_like(u)
        apply_stencil_block(u, coeffs, out, lo, hi)
        sl = tuple(slice(1 + a, 1 + b) for a, b in zip(lo, hi))
        assert np.array_equal(out[sl], full[sl])

    @pytest.mark.parametrize(
        "lo,hi",
        [
            ((0, 0, 0), (1, 9, 9)),      # 1-thick, flush against -x face
            ((8, 0, 0), (9, 9, 9)),      # 1-thick, flush against +x face
            ((0, 0, 0), (9, 1, 9)),      # 1-thick, flush against -y face
            ((0, 8, 0), (9, 9, 9)),      # 1-thick, flush against +y face
            ((0, 0, 0), (9, 9, 1)),      # 1-thick, flush against -z face
            ((0, 0, 8), (9, 9, 9)),      # 1-thick, flush against +z face
            ((4, 4, 4), (5, 5, 5)),      # single point
            ((0, 0, 0), (9, 9, 9)),      # the whole interior
        ],
    )
    def test_edge_blocks(self, lo, hi):
        coeffs = tensor_product_coefficients((0.9, -0.6, 0.4), 0.8)
        u = make_field(9, seed=5)
        full = apply_stencil(u, coeffs)
        out = np.zeros_like(u)
        apply_stencil_block(u, coeffs, out, lo, hi)
        sl = tuple(slice(1 + a, 1 + b) for a, b in zip(lo, hi))
        assert np.array_equal(out[sl], full[sl])

    @pytest.mark.parametrize(
        "lo,hi",
        [
            ((3, 3, 3), (3, 6, 6)),  # empty (zero x-extent)
            ((5, 5, 5), (4, 6, 6)),  # degenerate (hi < lo)
            ((0, 0, 0), (0, 0, 0)),  # fully empty
        ],
    )
    def test_empty_and_degenerate_blocks_are_noops(self, lo, hi):
        coeffs = tensor_product_coefficients((1.0, 0.5, 0.25), 0.5)
        u = make_field(8, seed=6)
        out = np.zeros_like(u)
        apply_stencil_block(u, coeffs, out, lo, hi)
        assert out.sum() == 0.0

    def test_out_of_range_rejected_on_separable_path(self):
        coeffs = tensor_product_coefficients((1, 1, 1), 0.5)
        u = make_field(6)
        with pytest.raises(ValueError):
            apply_stencil_block(u, coeffs, np.zeros_like(u), (0, 0, 0), (7, 6, 6))

    def test_boundary_slab_tiling_bitwise(self):
        """The six 1-thick boundary slabs + core tile to the full sweep
        bit-for-bit — the exact partition the overlap implementations use."""
        n = 8
        coeffs = tensor_product_coefficients((1.0, 0.9, 0.8), 0.7)
        u = make_field(n, seed=7)
        full = apply_stencil(u, coeffs)
        out = np.zeros_like(u)
        slabs = [
            ((0, 0, 0), (1, n, n)), ((n - 1, 0, 0), (n, n, n)),
            ((1, 0, 0), (n - 1, 1, n)), ((1, n - 1, 0), (n - 1, n, n)),
            ((1, 1, 0), (n - 1, n - 1, 1)), ((1, 1, n - 1), (n - 1, n - 1, n)),
            ((1, 1, 1), (n - 1, n - 1, n - 1)),  # core
        ]
        for lo, hi in slabs:
            apply_stencil_block(u, coeffs, out, lo, hi)
        assert np.array_equal(interior(out), interior(full))


class TestDenseFallback:
    def _random_dense(self, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3, 3))
        return StencilCoefficients(a=a, velocity=(0.0, 0.0, 0.0), nu=0.5)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_random_tensors_not_separable(self, seed):
        coeffs = self._random_dense(seed)
        assert not coeffs.is_separable
        assert factor_rank1(coeffs.a) is None

    def test_auto_dispatch_uses_dense_reference(self):
        """Non-separable coefficients run the dense kernel bit-for-bit."""
        coeffs = self._random_dense(3)
        u = make_field(7, seed=8)
        auto = apply_stencil(u, coeffs)  # method="auto" → dense fallback
        dense = apply_stencil_dense(u, coeffs)
        assert np.array_equal(interior(auto), interior(dense))
        out_a = np.zeros_like(u)
        out_d = np.zeros_like(u)
        apply_stencil_block(u, coeffs, out_a, (1, 2, 0), (6, 7, 5))
        apply_stencil_block_dense(u, coeffs, out_d, (1, 2, 0), (6, 7, 5))
        assert np.array_equal(out_a, out_d)

    def test_forcing_separable_on_dense_tensor_raises(self):
        coeffs = self._random_dense(4)
        u = make_field(6)
        with pytest.raises(ValueError):
            apply_stencil(u, coeffs, method="separable")

    def test_unknown_method_rejected(self):
        coeffs = tensor_product_coefficients((1, 1, 1), 0.5)
        u = make_field(6)
        with pytest.raises(ValueError):
            apply_stencil(u, coeffs, method="magic")


class TestFactorization:
    @given(velocity=velocities, nu_fraction=st.floats(0.2, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_table1_literal_recovers_factors(self, velocity, nu_fraction):
        """The literal Table I transcription is recognized as separable via
        rank-1 recovery, and its factors reconstruct the tensor."""
        nu = nu_fraction * max_stable_nu(velocity)
        coeffs = table1_coefficients(velocity, nu)
        assert coeffs.is_separable
        fx, fy, fz = coeffs.factors
        recon = np.einsum("i,j,k->ijk", fx, fy, fz)
        np.testing.assert_allclose(recon, coeffs.a, rtol=1e-12, atol=1e-14)

    def test_zero_tensor_factors_to_zero(self):
        f = factor_rank1(np.zeros((3, 3, 3)))
        assert f is not None
        assert all(np.array_equal(x, np.zeros(3)) for x in f)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            factor_rank1(np.zeros((3, 3)))

    def test_explicit_factors_validated(self):
        with pytest.raises(ValueError):
            StencilCoefficients(
                a=np.zeros((3, 3, 3)), velocity=(0, 0, 0), nu=0.5,
                factors=(np.zeros(2), np.zeros(3), np.zeros(3)),
            )


_RANK = (48, 48, 48)


def _rank_tilings():
    """The nonblocking and thickness-2 hybrid block tilings of a 48^3 rank."""
    cfg = RunConfig(machine=LENS, implementation="nonblocking", cores=16,
                    domain=_RANK)
    rank = RankData(cfg, Subdomain(0, (0, 0, 0), (0, 0, 0), _RANK))
    box = BoxDecomposition(_RANK, 2)
    return (
        rank.core_thirds()
        + rank.boundary_slabs()
        + [box.wall_interior_box(w) for w in box.walls()]
        + [(box.block_lo, box.block_hi)]
    )


_RANK_TILINGS = _rank_tilings()


class TestArenaZeroAllocation:
    def test_steady_state_is_allocation_free(self):
        """After the first step warms the arena, repeated applications lease
        the cached buffers (misses stop growing)."""
        arena = ScratchArena()
        coeffs = tensor_product_coefficients((1.0, 0.9, 0.8), 0.9)
        u = make_field(10, seed=9)
        out = np.zeros_like(u)
        apply_stencil(u, coeffs, out=out, arena=arena)
        warm_misses = arena.misses
        assert warm_misses > 0
        for _ in range(5):
            apply_stencil(u, coeffs, out=out, arena=arena)
            apply_stencil_block(u, coeffs, out, (0, 0, 0), (5, 10, 10), arena=arena)
        assert arena.misses == warm_misses
        assert arena.hits >= 3 * 6

    def test_advance_with_scratch_reuses_arena(self):
        arena = ScratchArena()
        coeffs = tensor_product_coefficients((1.0, 0.9, 0.8), 0.9)
        u = make_field(8, seed=10)
        scratch = np.zeros_like(u)
        u = advance(u, coeffs, steps=2, scratch=scratch, arena=arena)
        warm = arena.misses
        advance(u, coeffs, steps=4, scratch=scratch, arena=arena)
        assert arena.misses == warm

    def test_shape_change_retires_buffer(self):
        """A lease is a flat slice of the name's buffer: the same length
        again is the same memory, a longer one retires the buffer."""
        arena = ScratchArena()
        a = arena.get("t", 64)
        b = arena.get("t", 64)
        assert a.shape == b.shape == (64,)
        assert a.ctypes.data == b.ctypes.data
        c = arena.get("t", 125)
        assert c.shape == (125,) and not np.shares_memory(a, c)
        assert len(arena) == 1
        assert arena.misses == 2 and arena.hits == 1

    def test_smaller_lease_carves_without_allocating(self):
        """A shorter lease is the front of the buffer, and a caller that
        wants a shape reshapes it without a copy."""
        arena = ScratchArena()
        big = arena.get("t", 125)
        small = arena.get("t", 24)
        assert small.shape == (24,) and small.flags.c_contiguous
        shaped = small.reshape(2, 3, 4)
        assert shaped.flags.c_contiguous and np.shares_memory(shaped, big)
        assert small.ctypes.data == big.ctypes.data
        assert arena.misses == 1 and arena.hits == 1
        assert arena.nbytes == 5 * 5 * 5 * 8

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(range(len(_RANK_TILINGS))))
    def test_mixed_block_shapes_add_no_misses(self, order):
        """After one warm pass over the nonblocking and hybrid tilings of a
        48^3 rank, their blocks in any order lease without allocating, and
        the arena never holds more than three haloed fields."""
        arena = ScratchArena()
        coeffs = tensor_product_coefficients((0.9, -0.6, 0.4), 0.5)
        u = make_field(_RANK, seed=12)
        out = np.zeros_like(u)
        for lo, hi in _RANK_TILINGS:
            apply_stencil_block(u, coeffs, out, lo, hi, arena=arena)
        warm = arena.misses
        for i in order:
            apply_stencil_block(u, coeffs, out, *_RANK_TILINGS[i], arena=arena)
        assert arena.misses == warm
        assert arena.nbytes <= 3 * u.nbytes
