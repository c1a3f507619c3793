"""The process-wide structure memo: shared decompositions and box geometry.

Runs of one ``(ntasks, domain)`` share a :class:`Decomposition` whose
per-rank layouts are filled on first use, and runs of one ``(subdomain
shape, box thickness)`` share a :class:`HybridGeometry`. These tests hold
the memo to two promises: a memoized entry equals the one computed from
scratch, and a run's result does not depend on what earlier runs left in
the memo.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.config import RunConfig
from repro.core.hybrid_common import HybridGeometry, hybrid_geometry
from repro.core.runner import _run_uncached
from repro.decomp.boxdecomp import BoxDecomposition
from repro.decomp.halo import face_message_bytes, halo_tag
from repro.decomp.partition import (
    MAX_KEPT_LAYOUTS,
    Decomposition,
    Subdomain,
    block_range,
    shared_decomposition,
)
from repro.machines import JAGUARPF, LENS
from repro.perturb import NoiseSpec


def clear_memo():
    shared_decomposition.cache_clear()
    hybrid_geometry.cache_clear()


def fresh_layout(decomp, rank):
    """Subdomain, neighbors and halo plans with no memo involved."""
    coords = decomp.coords_of(rank)
    offset, shape = zip(*(
        block_range(decomp.domain[d], decomp.task_grid[d], coords[d])
        for d in range(3)
    ))
    sub = Subdomain(rank=rank, coords=coords, offset=offset, shape=shape)
    neighbors = tuple(
        (decomp.neighbor(rank, d, -1), decomp.neighbor(rank, d, 1))
        for d in range(3)
    )
    plans = []
    for d in range(3):
        nbytes = face_message_bytes(shape, d)
        peers = [(side, decomp.neighbor(rank, d, side)) for side in (-1, 1)]
        plans.append((
            tuple((peer, halo_tag(d, -side), nbytes) for side, peer in peers),
            tuple((peer, halo_tag(d, side), nbytes) for side, peer in peers),
        ))
    return sub, neighbors, tuple(plans)


def geometry_fields(geom):
    box = geom.box
    fields = {name: getattr(geom, name) for name in HybridGeometry.__slots__}
    fields["box"] = (box.shape, box.thickness, box.block_lo, box.block_hi)
    return fields


@st.composite
def _cases(draw):
    domain = tuple(draw(st.integers(4, 40)) for _ in range(3))
    ntasks = draw(st.integers(1, 64))
    rank = draw(st.integers(0, ntasks - 1))
    return ntasks, domain, rank, draw(st.integers(1, 6))


class TestMemoEqualsFresh:
    @given(_cases())
    @settings(max_examples=150, deadline=None)
    def test_layout_and_geometry_match_a_fresh_computation(self, case):
        ntasks, domain, rank, thickness = case
        try:
            decomp = shared_decomposition(ntasks, domain)
        except ValueError:
            assume(False)  # no valid task grid for this domain
        assert shared_decomposition(ntasks, domain) is decomp
        lay = decomp.layout(rank)
        assert decomp.layout(rank) is lay  # the second read is the memo
        sub, neighbors, plans = fresh_layout(Decomposition(ntasks, domain), rank)
        assert decomp.subdomain(rank) == sub == lay.sub
        assert lay.neighbors == neighbors
        assert lay.halo_plans == plans
        assert lay.face_bytes == tuple(p[0][0][2] for p in plans)

        try:
            fresh = HybridGeometry(BoxDecomposition(sub.shape, thickness))
        except ValueError:
            with pytest.raises(ValueError):
                hybrid_geometry(sub.shape, thickness)
            return
        geom = hybrid_geometry(sub.shape, thickness)
        assert hybrid_geometry(sub.shape, thickness) is geom
        assert geometry_fields(geom) == geometry_fields(fresh)

    def test_shared_entries_are_read_only(self):
        lay = shared_decomposition(8, (16, 16, 16)).layout(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            lay.face_bytes = (0, 0, 0)
        geom = hybrid_geometry((12, 12, 12), 2)
        with pytest.raises(AttributeError, match="shared"):
            geom.walls = ()
        assert isinstance(geom.walls, tuple)
        assert all(isinstance(boxes, tuple) for boxes in geom.wall_interior_boxes)

    def test_a_decomposition_keeps_a_bounded_number_of_layouts(self):
        decomp = Decomposition(4 * MAX_KEPT_LAYOUTS, (64, 64, 64))
        fresh = Decomposition(4 * MAX_KEPT_LAYOUTS, (64, 64, 64))
        for rank in range(decomp.ntasks):
            assert decomp.layout(rank) == fresh.layout(rank)
            assert decomp.subdomain(rank) == fresh_layout(fresh, rank)[0]
        assert len(decomp._layouts) == MAX_KEPT_LAYOUTS
        assert decomp.layout(0) is decomp.layout(0)

    def test_out_of_range_rank_raises_and_stores_nothing(self):
        decomp = Decomposition(4, (8, 8, 8))
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                decomp.layout(4)
        assert decomp._layouts == {}


def _configs():
    lens = dict(machine=LENS, cores=32, threads_per_task=4, steps=2,
                domain=(48, 48, 48), box_thickness=2)
    small = dict(lens, domain=(24, 24, 24), network="full", functional=True)
    return [
        # Mirror: two implementations on one 16-task JaguarPF decomposition.
        RunConfig(machine=JAGUARPF, implementation="bulk", cores=96,
                  threads_per_task=6, steps=2),
        RunConfig(machine=JAGUARPF, implementation="nonblocking", cores=48,
                  threads_per_task=3, steps=2),
        # Mirror: both hybrids on one decomposition and one box geometry.
        RunConfig(implementation="hybrid_overlap", **lens),
        RunConfig(implementation="hybrid_bulk", **lens),
        # Full network, seeded, on the same decomposition and geometry.
        RunConfig(implementation="hybrid_overlap", network="full", seed=5,
                  noise=NoiseSpec.preset("low"), **lens),
        # Full network, functional: two codes on one 8-task decomposition.
        RunConfig(implementation="hybrid_overlap", **small),
        RunConfig(implementation="nonblocking", **small),
    ]


def _outcome(result):
    out = (result.elapsed_s, dict(result.phases), dict(result.comm_stats))
    if result.config.functional:
        out += (result.global_field.tobytes(), tuple(sorted(result.norms.items())))
    return out


class TestRunsIgnoreMemoState:
    def test_cleared_and_warm_memo_give_bit_identical_runs(self):
        configs = _configs()
        cleared = []
        for cfg in configs:
            clear_memo()
            cleared.append(_outcome(_run_uncached(cfg)))
        clear_memo()
        forward = [_outcome(_run_uncached(cfg)) for cfg in configs]
        assert shared_decomposition.cache_info().hits > 0
        assert hybrid_geometry.cache_info().hits > 0
        backward = [_outcome(_run_uncached(cfg)) for cfg in reversed(configs)]
        backward.reverse()
        for cfg, a, b, c in zip(configs, cleared, forward, backward):
            assert a == b == c, cfg.implementation
        field = np.frombuffer(cleared[-1][3])
        assert np.isfinite(field).all() and field.any()
