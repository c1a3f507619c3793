"""Tests for the vectorized stencil kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stencil.coefficients import tensor_product_coefficients
from repro.stencil.grid import Grid3D, allocate_field, gaussian_initial_condition
from repro.stencil.kernels import (
    advance,
    apply_stencil,
    apply_stencil_block,
    fill_periodic_halo,
    interior,
)


def make_field(n=8, seed=0):
    rng = np.random.default_rng(seed)
    u = allocate_field((n, n, n))
    interior(u)[...] = rng.random((n, n, n))
    return u


def roll_reference(ui, coeffs):
    """Reference: Equation 2 via np.roll on the periodic interior."""
    out = np.zeros_like(ui)
    for (i, j, k), a in coeffs.items():
        out += a * np.roll(ui, (-i, -j, -k), axis=(0, 1, 2))
    return out


class TestHaloFill:
    def test_wraps_each_dimension(self):
        u = make_field(6)
        fill_periodic_halo(u)
        assert np.array_equal(u[0], u[-2])
        assert np.array_equal(u[-1], u[1])
        assert np.array_equal(u[:, 0], u[:, -2])
        assert np.array_equal(u[:, :, -1], u[:, :, 1])

    def test_corner_propagation(self):
        """Serialized fill makes even the triple corners periodic-correct."""
        u = make_field(5)
        fill_periodic_halo(u)
        assert u[0, 0, 0] == u[-2, -2, -2]
        assert u[-1, -1, -1] == u[1, 1, 1]
        assert u[0, -1, 0] == u[-2, 1, -2]

    def test_partial_dims(self):
        u = make_field(5)
        before = u.copy()
        fill_periodic_halo(u, dims=[2])
        assert np.array_equal(u[:, :, 0], u[:, :, -2])
        # x halo untouched
        assert np.array_equal(u[0, :, 1:-1], before[0, :, 1:-1])


class TestApplyStencil:
    @pytest.mark.parametrize("velocity", [(1.0, 0.9, 0.8), (-0.5, 0.3, 1.0)])
    def test_matches_roll_reference(self, velocity):
        coeffs = tensor_product_coefficients(velocity, 0.7)
        u = make_field(8)
        fill_periodic_halo(u)
        out = apply_stencil(u, coeffs)
        ref = roll_reference(interior(u).copy(), coeffs)
        assert np.allclose(interior(out), ref, atol=1e-13)

    def test_mass_conservation(self):
        """Coefficients sum to 1, so the periodic field sum is conserved."""
        coeffs = tensor_product_coefficients((1.0, 0.9, 0.8), 1.0)
        u = make_field(10)
        total0 = interior(u).sum()
        u = advance(u, coeffs, steps=5)
        assert interior(u).sum() == pytest.approx(total0, rel=1e-12)

    def test_out_reused(self):
        coeffs = tensor_product_coefficients((1.0, 0.5, 0.25), 0.5)
        u = make_field(6)
        fill_periodic_halo(u)
        out = np.ones_like(u)
        result = apply_stencil(u, coeffs, out=out)
        assert result is out
        # halo of out untouched
        assert np.all(out[0] == 1.0)

    def test_zero_coefficients_skipped(self):
        """Axis-aligned velocity zeroes most coefficients; still correct."""
        coeffs = tensor_product_coefficients((1.0, 0.0, 0.0), 0.5)
        u = make_field(6)
        fill_periodic_halo(u)
        out = apply_stencil(u, coeffs)
        ref = roll_reference(interior(u).copy(), coeffs)
        assert np.allclose(interior(out), ref)


class TestApplyStencilBlock:
    @given(
        lo=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        span=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_matches_full(self, lo, span):
        n = 10
        hi = tuple(min(n, l + s) for l, s in zip(lo, span))
        coeffs = tensor_product_coefficients((1.0, 0.9, 0.8), 0.6)
        u = make_field(n, seed=3)
        fill_periodic_halo(u)
        full = apply_stencil(u, coeffs)
        out = np.zeros_like(u)
        apply_stencil_block(u, coeffs, out, lo, hi)
        sl = tuple(slice(1 + a, 1 + b) for a, b in zip(lo, hi))
        assert np.allclose(out[sl], full[sl])

    def test_tiling_covers_interior(self):
        """Disjoint blocks tile to exactly the full sweep."""
        n = 9
        coeffs = tensor_product_coefficients((0.7, -0.4, 1.0), 0.8)
        u = make_field(n, seed=5)
        fill_periodic_halo(u)
        full = apply_stencil(u, coeffs)
        out = np.zeros_like(u)
        cuts = [0, 3, 6, 9]
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    apply_stencil_block(
                        u, coeffs, out,
                        (cuts[a], cuts[b], cuts[c]),
                        (cuts[a + 1], cuts[b + 1], cuts[c + 1]),
                    )
        assert np.allclose(interior(out), interior(full))

    def test_out_of_range_rejected(self):
        coeffs = tensor_product_coefficients((1, 1, 1), 0.5)
        u = make_field(6)
        with pytest.raises(ValueError):
            apply_stencil_block(u, coeffs, np.zeros_like(u), (0, 0, 0), (7, 6, 6))

    def test_empty_block_is_noop(self):
        coeffs = tensor_product_coefficients((1, 1, 1), 0.5)
        u = make_field(6)
        out = np.zeros_like(u)
        apply_stencil_block(u, coeffs, out, (2, 2, 2), (2, 6, 6))
        assert out.sum() == 0.0


class TestAdvance:
    def test_multiple_steps_equal_repeated_single(self):
        coeffs = tensor_product_coefficients((1.0, 0.9, 0.8), 1.0)
        u1 = make_field(8, seed=7)
        u2 = u1.copy()
        u1 = advance(u1, coeffs, steps=3)
        for _ in range(3):
            u2 = advance(u2, coeffs, steps=1)
        assert np.array_equal(interior(u1), interior(u2))

    def test_returns_flip_buffer_without_copy(self):
        """Odd step counts return the scratch buffer, not ``u`` (no copy)."""
        coeffs = tensor_product_coefficients((1.0, 0.9, 0.8), 1.0)
        u = make_field(8, seed=9)
        scratch = np.zeros_like(u)
        out = advance(u, coeffs, steps=1, scratch=scratch)
        assert out is scratch
        out2 = advance(u, coeffs, steps=2, scratch=scratch)
        assert out2 is u

    def test_scratch_aliasing_input_is_replaced(self):
        """Passing ``scratch is u`` must not corrupt the step."""
        coeffs = tensor_product_coefficients((1.0, 0.9, 0.8), 1.0)
        u = make_field(8, seed=11)
        ref = advance(u.copy(), coeffs, steps=2)
        out = advance(u, coeffs, steps=2, scratch=u)
        assert np.array_equal(interior(out), interior(ref))


class TestMismatchedBuffers:
    """``out`` and ``scratch`` must match ``u``; a mismatch used to write at
    the wrong offsets, return the wrong shape or change the dtype."""

    COEFFS = tensor_product_coefficients((1.0, 0.9, 0.8), 0.5)

    @pytest.mark.parametrize("shape,dtype", [
        ((12, 10, 10), np.float64),
        ((10, 10, 11), np.float64),
        ((10, 10, 10), np.float32),
    ])
    def test_apply_stencil_rejects_out(self, shape, dtype):
        u = make_field(8, seed=1)
        with pytest.raises(ValueError, match="out"):
            apply_stencil(u, self.COEFFS, out=np.zeros(shape, dtype))

    @pytest.mark.parametrize("method", ["separable", "dense"])
    def test_apply_stencil_block_rejects_out(self, method):
        u = make_field(8, seed=2)
        with pytest.raises(ValueError, match="out"):
            apply_stencil_block(u, self.COEFFS, np.zeros((12, 12, 12)),
                                (0, 0, 0), (4, 4, 4), method=method)
        with pytest.raises(ValueError, match="out"):
            apply_stencil_block(u, self.COEFFS, np.zeros(u.shape, np.float32),
                                (0, 0, 0), (4, 4, 4), method=method)

    def test_advance_rejects_larger_scratch(self):
        u = make_field(8, seed=3)
        with pytest.raises(ValueError, match="scratch"):
            advance(u, self.COEFFS, steps=1, scratch=np.zeros((12, 12, 12)))

    def test_advance_rejects_float32_scratch(self):
        u = make_field(8, seed=4)
        with pytest.raises(ValueError, match="scratch"):
            advance(u, self.COEFFS, steps=1,
                    scratch=np.zeros(u.shape, dtype=np.float32))
