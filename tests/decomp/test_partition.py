"""Tests for task grids, block ranges, and subdomain/neighbor maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp.halo26 import OFFSETS26
from repro.decomp.partition import (
    Decomposition,
    _factor_triples,
    block_range,
    choose_task_grid,
)


def neighbors26(decomp, rank):
    """The ranks a direct 26-neighbor exchange talks to (may include ``rank``)."""
    coords = decomp.coords_of(rank)
    return {decomp.rank_of(tuple(c + dd for c, dd in zip(coords, d)))
            for d in OFFSETS26}


def _min_largest_factor(n):
    """Largest factor of the triple minimizing the largest factor."""
    return min((t for t in _factor_triples(n)), key=lambda t: t[2])


class TestBlockRange:
    @given(n=st.integers(1, 2000), p=st.integers(1, 200))
    @settings(max_examples=150)
    def test_partition_properties(self, n, p):
        if p > n:
            with pytest.raises(ValueError):
                block_range(n, p, 0)
            return
        sizes, starts = [], []
        for i in range(p):
            s, sz = block_range(n, p, i)
            starts.append(s)
            sizes.append(sz)
        # covers exactly [0, n)
        assert sum(sizes) == n
        assert starts[0] == 0
        for i in range(1, p):
            assert starts[i] == starts[i - 1] + sizes[i - 1]
        # paper guarantee: sizes differ by at most one, none empty
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            block_range(10, 3, 3)
        with pytest.raises(ValueError):
            block_range(10, 3, -1)


class TestChooseTaskGrid:
    def test_perfect_cube(self):
        # Paper: cube-count tasks whose root divides 420 give equal cubes.
        assert choose_task_grid(64) == (4, 4, 4)
        assert choose_task_grid(27) == (3, 3, 3)

    def test_single_task(self):
        assert choose_task_grid(1) == (1, 1, 1)

    def test_prime_count(self):
        px, py, pz = choose_task_grid(31)
        assert px * py * pz == 31
        assert (px, py, pz) == (1, 1, 31)

    @given(ntasks=st.integers(1, 5000))
    @settings(max_examples=120)
    def test_product_and_ordering(self, ntasks):
        try:
            px, py, pz = choose_task_grid(ntasks)
        except ValueError:
            # No aligned factorization can avoid empty subdomains (e.g. a
            # prime count with a factor exceeding the domain edge); the
            # paper's no-empty-domain constraint makes this an error.
            assert max(f for f in _min_largest_factor(ntasks)) > 420
            return
        assert px * py * pz == ntasks
        # fewest cuts in x -> subdomain largest in x, smallest in z (paper)
        assert px <= py <= pz

    def test_no_empty_subdomains(self):
        # 1000 tasks on a tiny domain must still give everyone points.
        grid = choose_task_grid(1000, (10, 10, 10))
        assert all(p <= 10 for p in grid)

    def test_too_many_tasks_rejected(self):
        with pytest.raises(ValueError):
            choose_task_grid(1001, (10, 10, 10))

    def test_zero_tasks_rejected(self):
        with pytest.raises(ValueError):
            choose_task_grid(0)


class TestDecomposition:
    @given(ntasks=st.integers(1, 600))
    @settings(max_examples=60, deadline=None)
    def test_subdomains_tile_domain(self, ntasks):
        domain = (20, 24, 28)
        if ntasks > 20 * 24 * 28:
            return
        try:
            d = Decomposition(ntasks, domain)
        except ValueError:
            return
        cover = np.zeros(domain, dtype=int)
        for r in range(ntasks):
            sub = d.subdomain(r)
            sl = tuple(slice(o, o + s) for o, s in zip(sub.offset, sub.shape))
            cover[sl] += 1
        assert (cover == 1).all()  # exact tiling, no gaps, no overlap

    def test_rank_coords_roundtrip(self):
        d = Decomposition(24, (420, 420, 420))
        for r in range(24):
            assert d.rank_of(d.coords_of(r)) == r

    def test_neighbor_symmetry(self):
        d = Decomposition(36, (60, 60, 60))
        for r in range(36):
            for dim in range(3):
                for side in (-1, 1):
                    nbr = d.neighbor(r, dim, side)
                    assert d.neighbor(nbr, dim, -side) == r

    def test_neighbor_bad_side(self):
        d = Decomposition(8)
        with pytest.raises(ValueError):
            d.neighbor(0, 0, 2)

    def test_self_neighbor_for_small_counts(self):
        """A task may be its own neighbor (paper §IV-B)."""
        d = Decomposition(2, (420, 420, 420))
        # 2 tasks -> grid (1,1,2): x and y neighbors are self.
        assert d.neighbor(0, 0, 1) == 0
        assert d.neighbor(0, 2, 1) == 1

    def test_all_neighbors_at_most_26(self):
        d = Decomposition(64, (64, 64, 64))
        for r in (0, 21, 63):
            nbrs = neighbors26(d, r)
            assert len(nbrs) <= 26
            assert r not in nbrs or d.ntasks < 27

    def test_26_neighbors_for_large_grid(self):
        d = Decomposition(4 * 4 * 4, (64, 64, 64))
        assert len(neighbors26(d, 0)) == 26

    def test_max_min_shapes(self):
        d = Decomposition(8, (10, 10, 10))
        mx = d.subdomain(0).shape  # block_range puts the remainder first
        mn = d.min_subdomain_shape()
        assert all(a - b <= 1 for a, b in zip(mx, mn))
        assert mx == (5, 5, 5)

    def test_subdomain_rank_bounds(self):
        d = Decomposition(8)
        with pytest.raises(ValueError):
            d.subdomain(8)

    def test_node_mapping(self):
        d = Decomposition(8)
        assert d.node_of(0, 4) == 0
        assert d.node_of(7, 4) == 1
        with pytest.raises(ValueError):
            d.node_of(0, 0)

    def test_offnode_dims_slab(self):
        """With one task per node every off-self neighbor is off-node."""
        d = Decomposition(8, (40, 40, 40))  # (2,2,2)
        off = d.offnode_dims(0, tasks_per_node=1)
        assert all(all(v) for v in off.values())

    def test_offnode_dims_x_on_node(self):
        """Consecutive x ranks share a node under contiguous placement."""
        d = Decomposition(64, (64, 64, 64))  # (4,4,4), x fastest
        off = d.offnode_dims(1, tasks_per_node=4)
        assert off[0] == (False, False)  # both x neighbors on node
        assert off[1] == (True, True)
        assert off[2] == (True, True)
