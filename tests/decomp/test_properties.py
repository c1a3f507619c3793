"""Property-based tests (hypothesis) for the decomposition layer.

These assert the §IV-B contracts over *random* task counts and domains
rather than the handful of hand-picked cases in the example-based tests:

* the partition covers every global cell exactly once (no gaps, no overlap);
* subdomain sizes differ by at most one point per dimension;
* the 26-neighbor relation is symmetric and halo regions pair up
  (what rank a sends toward ``d`` is what its ``d``-neighbor receives);
* the CPU-box decomposition conserves points and respects the thin-box
  thickness constraints.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.decomp.boxdecomp import BoxDecomposition
from repro.decomp.halo26 import (
    OFFSETS26,
    offset_tag,
    pack_region,
    region_points,
    total_exchange_bytes,
    unpack_region,
)
from repro.decomp.partition import Decomposition, block_range, choose_task_grid

# Small-but-irregular spaces: primes, perfect cubes, and everything between.
_ntasks = st.integers(min_value=1, max_value=64)
_dim = st.integers(min_value=4, max_value=40)
_domains = st.tuples(_dim, _dim, _dim)


@st.composite
def _decomps(draw):
    domain = draw(_domains)
    ntasks = draw(_ntasks)
    try:
        return Decomposition(ntasks, domain)
    except ValueError:
        # no factor triple of ntasks fits this domain (e.g. a large prime):
        # infeasible input, not a decomposition bug.
        assume(False)


class TestPartitionCoversExactlyOnce:
    @given(_decomps())
    @settings(max_examples=60, deadline=None)
    def test_every_cell_owned_exactly_once(self, decomp):
        cover = np.zeros(decomp.domain, dtype=np.int32)
        for rank in range(decomp.ntasks):
            sub = decomp.subdomain(rank)
            sl = tuple(
                slice(o, o + s) for o, s in zip(sub.offset, sub.shape)
            )
            cover[sl] += 1
        assert cover.min() == 1 and cover.max() == 1

    @given(_decomps())
    @settings(max_examples=60, deadline=None)
    def test_no_empty_subdomain(self, decomp):
        for rank in range(decomp.ntasks):
            assert decomp.subdomain(rank).points >= 1

    @given(_decomps())
    @settings(max_examples=60, deadline=None)
    def test_imbalance_at_most_one_point_per_dimension(self, decomp):
        big = decomp.subdomain(0).shape  # block_range puts the remainder first
        small = decomp.min_subdomain_shape()
        for b, s in zip(big, small):
            assert 0 <= b - s <= 1

    @given(_decomps())
    @settings(max_examples=60, deadline=None)
    def test_task_grid_ordering_matches_paper(self, decomp):
        """Fewest cuts in x, most in z -> subdomains largest in x."""
        px, py, pz = decomp.task_grid
        assert px <= py <= pz


class TestBlockRange:
    @given(st.integers(min_value=1, max_value=500),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_blocks_tile_the_axis(self, n, p):
        if p > n:
            with pytest.raises(ValueError):
                block_range(n, p, 0)
            return
        end = 0
        for i in range(p):
            start, size = block_range(n, p, i)
            assert start == end and size >= 1
            end = start + size
        assert end == n


class TestNeighborSymmetry:
    @given(_decomps())
    @settings(max_examples=60, deadline=None)
    def test_face_neighbors_are_mutual(self, decomp):
        for rank in range(decomp.ntasks):
            for dim in range(3):
                for side in (-1, 1):
                    nbr = decomp.neighbor(rank, dim, side)
                    assert decomp.neighbor(nbr, dim, -side) == rank

    @given(_decomps())
    @settings(max_examples=40, deadline=None)
    def test_26_neighborhood_is_symmetric(self, decomp):
        def toward(rank, d):
            coords = decomp.coords_of(rank)
            return decomp.rank_of(tuple(c + dd for c, dd in zip(coords, d)))

        for rank in range(decomp.ntasks):
            for d in OFFSETS26:
                back = tuple(-dd for dd in d)
                assert toward(toward(rank, d), back) == rank

    @given(_decomps())
    @settings(max_examples=60, deadline=None)
    def test_coords_roundtrip(self, decomp):
        for rank in range(decomp.ntasks):
            assert decomp.rank_of(decomp.coords_of(rank)) == rank


_shapes = st.tuples(
    st.integers(min_value=3, max_value=16),
    st.integers(min_value=3, max_value=16),
    st.integers(min_value=3, max_value=16),
)


class TestHalo26Regions:
    @given(_shapes)
    @settings(max_examples=60, deadline=None)
    def test_opposite_offsets_carry_equal_points(self, shape):
        """Send toward d and receive from d are the same-shaped region."""
        for d in OFFSETS26:
            opp = tuple(-c for c in d)
            assert region_points(shape, d) == region_points(shape, opp)

    @given(_shapes)
    @settings(max_examples=60, deadline=None)
    def test_total_bytes_matches_region_sum(self, shape):
        total = sum(region_points(shape, d) for d in OFFSETS26) * 8
        assert total_exchange_bytes(shape, itemsize=8) == total

    @given(_shapes)
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_roundtrip(self, shape):
        """A periodic self-exchange reconstructs the array's own halo."""
        nx, ny, nz = shape
        field = np.arange((nx + 2) * (ny + 2) * (nz + 2), dtype=float).reshape(
            nx + 2, ny + 2, nz + 2
        )
        interior = field[1:-1, 1:-1, 1:-1].copy()
        for d in OFFSETS26:
            buf = pack_region(field, d)
            assert buf.size == region_points(shape, d)
            unpack_region(field, tuple(-c for c in d), buf.copy())
        # interior untouched by halo writes
        np.testing.assert_array_equal(field[1:-1, 1:-1, 1:-1], interior)

    def test_tags_unique(self):
        tags = [offset_tag(d) for d in OFFSETS26]
        assert len(set(tags)) == len(tags)


@st.composite
def _boxes(draw):
    t = draw(st.integers(min_value=1, max_value=5))
    lo = 2 * t + 1  # smallest shape leaving a non-empty GPU block
    shape = draw(st.tuples(*[st.integers(min_value=lo, max_value=32)] * 3))
    return shape, t


class TestBoxDecomposition:
    @given(_boxes())
    @settings(max_examples=80, deadline=None)
    def test_walls_and_block_conserve_points(self, box):
        shape, t = box
        bd = BoxDecomposition(shape, t)
        assert bd.gpu_points + bd.cpu_points == bd.total_points
        assert sum(w.points for w in bd.walls()) == bd.cpu_points

    @given(_boxes())
    @settings(max_examples=80, deadline=None)
    def test_walls_do_not_overlap(self, box):
        shape, t = box
        bd = BoxDecomposition(shape, t)
        cover = np.zeros(shape, dtype=np.int32)
        for w in bd.walls():
            sl = tuple(slice(l, h) for l, h in zip(w.lo, w.hi))
            cover[sl] += 1
        block = tuple(slice(l, h) for l, h in zip(bd.block_lo, bd.block_hi))
        cover[block] += 1
        assert cover.min() == 1 and cover.max() == 1

    @given(_boxes())
    @settings(max_examples=80, deadline=None)
    def test_block_shape_respects_thickness(self, box):
        shape, t = box
        bd = BoxDecomposition(shape, t)
        for n, lo, hi in zip(shape, bd.block_lo, bd.block_hi):
            assert lo == t and hi == n - t and hi - lo >= 1

    @given(st.tuples(*[st.integers(min_value=3, max_value=12)] * 3),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_too_thick_box_rejected(self, shape, t):
        if min(shape) <= 2 * t:
            with pytest.raises(ValueError):
                BoxDecomposition(shape, t)
        else:
            BoxDecomposition(shape, t)  # must not raise

    @given(_boxes())
    @settings(max_examples=40, deadline=None)
    def test_cpu_fraction_in_unit_interval(self, box):
        shape, t = box
        bd = BoxDecomposition(shape, t)
        assert 0.0 < bd.cpu_fraction < 1.0


class TestChooseTaskGrid:
    @given(st.integers(min_value=1, max_value=128), _domains)
    @settings(max_examples=80, deadline=None)
    def test_grid_factors_ntasks_and_fits(self, ntasks, domain):
        from repro.decomp.partition import _factor_triples

        try:
            px, py, pz = choose_task_grid(ntasks, domain)
        except ValueError:
            # must only happen when genuinely no sorted factor triple fits
            assert all(
                p1 > domain[0] or p2 > domain[1] or p3 > domain[2]
                for p1, p2, p3 in _factor_triples(ntasks)
            )
            return
        assert px * py * pz == ntasks
        assert px <= domain[0] and py <= domain[1] and pz <= domain[2]
