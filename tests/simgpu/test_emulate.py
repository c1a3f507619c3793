"""The tiled-kernel emulation must match the plain vectorized sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stencil.coefficients import tensor_product_coefficients
from repro.stencil.grid import allocate_field
from repro.stencil.kernels import (
    apply_stencil,
    apply_stencil_dense,
    fill_periodic_halo,
    interior,
)

from tiled_emulation import emulate_tiled_kernel


def make_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    u = allocate_field(shape)
    interior(u)[...] = rng.random(shape)
    fill_periodic_halo(u)
    return u


COEFFS = tensor_product_coefficients((1.0, 0.9, 0.8), 0.7)


class TestTiledKernel:
    @pytest.mark.parametrize("block", [(4, 4), (8, 2), (3, 5), (16, 1)])
    def test_matches_vectorized_sweep(self, block):
        u = make_field((12, 12, 12))
        ref = apply_stencil_dense(u, COEFFS)
        out = emulate_tiled_kernel(u, COEFFS, block)
        assert np.allclose(interior(out), interior(ref), atol=1e-14)

    def test_remainder_tiles(self):
        """Domain not divisible by the block: clipped tiles still correct."""
        u = make_field((13, 11, 9), seed=2)
        ref = apply_stencil_dense(u, COEFFS)
        out = emulate_tiled_kernel(u, COEFFS, (5, 4))
        assert np.allclose(interior(out), interior(ref), atol=1e-14)

    def test_block_bigger_than_domain(self):
        u = make_field((6, 6, 6), seed=3)
        ref = apply_stencil_dense(u, COEFFS)
        out = emulate_tiled_kernel(u, COEFFS, (32, 32))
        assert np.allclose(interior(out), interior(ref), atol=1e-14)

    def test_bad_block(self):
        u = make_field((6, 6, 6))
        with pytest.raises(ValueError):
            emulate_tiled_kernel(u, COEFFS, (0, 4))

    @given(
        bx=st.integers(1, 9),
        by=st.integers(1, 9),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_any_block_shape(self, bx, by, seed):
        u = make_field((8, 9, 7), seed=seed)
        ref = apply_stencil_dense(u, COEFFS)
        out = emulate_tiled_kernel(u, COEFFS, (bx, by))
        assert np.allclose(interior(out), interior(ref), atol=1e-14)

    def test_periodic_resident_step_matches_reference(self):
        """A full resident step (halo threads + tiled kernel) agrees to
        roundoff (the staged kernel sums the 27 terms in a different order,
        so bitwise equality is not expected)."""
        u = make_field((10, 10, 10), seed=5)
        # halo already filled by make_field (the halo threads' job)
        ref = apply_stencil_dense(u, COEFFS)
        out = emulate_tiled_kernel(u, COEFFS, (32, 8))
        assert np.allclose(interior(out), interior(ref), rtol=0, atol=5e-16)

    def test_matches_separable_production_path(self):
        """The production (separable) sweep agrees with the emulated dense
        kernel to roundoff — looser than the dense-vs-dense bound because
        the separable engine factors the sum entirely differently."""
        u = make_field((10, 10, 10), seed=6)
        ref = apply_stencil(u, COEFFS)  # dispatches to the separable engine
        out = emulate_tiled_kernel(u, COEFFS, (8, 8))
        assert np.allclose(interior(out), interior(ref), rtol=1e-12, atol=1e-14)
