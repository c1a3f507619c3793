"""Tests for the Fig. 1 CPU-box / GPU-block decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid_common import HybridGeometry
from repro.decomp.boxdecomp import BoxDecomposition

shapes = st.tuples(st.integers(5, 30), st.integers(5, 30), st.integers(5, 30))


def brute_force_cover(box):
    """Mark each interior point by who computes it."""
    owner = np.full(box.shape, " ", dtype="U1")
    lo, hi = box.block_lo, box.block_hi
    owner[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = "G"
    for w in box.walls():
        region = owner[w.lo[0] : w.hi[0], w.lo[1] : w.hi[1], w.lo[2] : w.hi[2]]
        assert (region == " ").all(), "walls overlap block or each other"
        region[...] = "C"
    return owner


class TestConstruction:
    def test_thickness_validation(self):
        with pytest.raises(ValueError):
            BoxDecomposition((10, 10, 10), 0)
        with pytest.raises(ValueError):
            BoxDecomposition((10, 10, 10), 5)  # no block left

    def test_block_geometry(self):
        box = BoxDecomposition((10, 12, 14), 2)
        assert box.block_lo == (2, 2, 2)
        assert box.block_hi == (8, 10, 12)
        assert box.block_shape == (6, 8, 10)

    @given(shape=shapes, t=st.integers(1, 4))
    @settings(max_examples=60)
    def test_partition_is_exact(self, shape, t):
        if min(shape) <= 2 * t:
            return
        box = BoxDecomposition(shape, t)
        owner = brute_force_cover(box)
        assert (owner != " ").all()  # every point owned
        assert (owner == "G").sum() == box.gpu_points
        assert (owner == "C").sum() == box.cpu_points
        assert box.gpu_points + box.cpu_points == box.total_points

    def test_cpu_fraction(self):
        box = BoxDecomposition((10, 10, 10), 1)
        assert box.cpu_fraction == pytest.approx((1000 - 512) / 1000)


class TestExchangeSurfaces:
    @given(shape=shapes, t=st.integers(1, 3))
    @settings(max_examples=40)
    def test_layer_counts_match_brute_force(self, shape, t):
        if min(shape) <= 2 * t + 2:
            return
        box = BoxDecomposition(shape, t)
        bx, by, bz = box.block_shape
        # block's outermost layer
        inner_boundary = bx * by * bz - max(0, bx - 2) * max(0, by - 2) * max(0, bz - 2)
        assert box.inner_boundary_points == inner_boundary
        # one-point shell just outside the block
        outer = (bx + 2) * (by + 2) * (bz + 2) - bx * by * bz
        assert box.inner_halo_points == outer

    def test_exchange_bytes(self):
        box = BoxDecomposition((12, 12, 12), 2)
        h2d, d2h = box.inner_exchange_bytes()
        assert h2d == box.inner_halo_points * 8
        assert d2h == box.inner_boundary_points * 8


class TestWallInterior:
    @given(shape=shapes, t=st.integers(1, 3))
    @settings(max_examples=40)
    def test_interiors_plus_outer_cover_walls(self, shape, t):
        if min(shape) <= 2 * t:
            return
        box = BoxDecomposition(shape, t)
        interiors = sum(HybridGeometry(box).wall_interior_points)
        assert interiors + box.wall_outer_boundary_points() == box.cpu_points

    def test_interior_boxes_avoid_outer_surface(self):
        box = BoxDecomposition((10, 10, 10), 2)
        nx, ny, nz = box.shape
        for w in box.walls():
            lo, hi = box.wall_interior_box(w)
            assert all(l >= 1 for l in lo)
            assert all(h <= n - 1 for h, n in zip(hi, (nx, ny, nz)))

    def test_thickness_one_walls_are_all_outer(self):
        box = BoxDecomposition((10, 10, 10), 1)
        assert HybridGeometry(box).wall_interior_points == (0, 0, 0)
