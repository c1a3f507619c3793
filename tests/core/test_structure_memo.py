"""The process-wide structure memos.

Runs of one ``(ntasks, domain)`` share a :class:`Decomposition` whose
per-rank layouts are filled on first use, and runs of one ``(subdomain
shape, box thickness)`` share a :class:`HybridGeometry`. SpMV runs share
the mirror profile's inputs per ``(problem, tasks per node)``, each
counted by a streamed scan of the pattern; GPU runs share the
stencil kernel rate per ``(device, block, tile shape)``; mirror
communicators share send prices per interconnect; functional sweeps share
a plan per ``(block extent, factor taps)``. These tests
hold the memos to two promises: a memoized entry equals the one computed
from scratch, and a run's result does not depend on what earlier runs
left in the memos.
"""

import dataclasses
import gc
from unittest import mock

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
from repro.des import Environment
from repro.machines import A100_SXM, JAGUARPF, LENS, ProgressModel
from repro.perturb import NoiseSpec
from repro.simmpi import MirrorComm, MirrorProfile, message
from repro.simmpi.message import _Pricing, _pricing
from repro.simgpu.blockmodel import _kernel_rate
from repro.stencil.arena import ScratchArena
from repro.stencil.coefficients import StencilCoefficients
from repro.stencil.kernels import _plan, apply_stencil_block
from repro.workloads import spmv
from repro.workloads.spmv import SpmvProblem, _extra_cols, gather_tag


def clear_memo():
    shared_decomposition.cache_clear()
    hybrid_geometry.cache_clear()
    _kernel_rate.cache_clear()
    _pricing.cache_clear()
    _plan.cache_clear()
    clear_spmv_memo()


def clear_spmv_memo():
    for memo in (spmv._problem, spmv._gather_summary, spmv._mirror_pick):
        memo.cache_clear()


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


def fresh_coupling(rows, band, extras, pseed, ntasks, rank):
    """Nonzero split and per-peer gather columns of one rank, literally:
    every stored column listed, extras drawn straight from the counter
    generator, remote columns deduped with ``np.unique``."""
    row0, nrows = block_range(rows, ntasks, rank)
    r1 = row0 + nrows
    extra = _extra_cols(rows, extras, pseed, row0, r1)
    cols = np.array([
        c
        for i in range(row0, r1)
        for c in [*range(max(0, i - band), min(rows - 1, i + band) + 1),
                  *extra[i - row0].tolist()]
    ], dtype=np.int64)
    remote_mask = (cols < row0) | (cols >= r1)
    remote = np.unique(cols[remote_mask])
    starts = [block_range(rows, ntasks, r)[0] for r in range(ntasks)]
    owners = np.searchsorted(starts, remote, side="right") - 1
    gather = {int(p): remote[owners == p] for p in np.unique(owners)}
    nnz_boundary = int(remote_mask.sum())
    return len(cols), len(cols) - nnz_boundary, nnz_boundary, gather


def fresh_summary(coupling, rank, ntasks):
    """The summary tuple of a :func:`fresh_coupling` result."""
    nnz, interior, boundary, gather = coupling
    plan = tuple((p, gather_tag(rank, p, ntasks), 8 * len(gather[p]))
                 for p in sorted(gather))
    return nnz, interior, boundary, plan, sum(n for _, _, n in plan)


def fresh_profile_inputs(rows, band, extras, pseed, ntasks, tpn):
    """(representative, summary, off-node flags) by the per-rank scan
    (``test_spmv._brute_representative``'s pick, on fresh couplings)."""
    couplings = [fresh_coupling(rows, band, extras, pseed, ntasks, r)
                 for r in range(tpn)]

    def offnode_bytes(r):
        return sum(8 * len(c) for p, c in couplings[r][3].items() if p // tpn != 0)

    rep = 0 if tpn in (1, ntasks) else max(range(tpn), key=offnode_bytes)
    summary = fresh_summary(couplings[rep], rep, ntasks)
    offnode = tuple((tag, p // tpn != 0) for p, tag, _ in summary[3])
    return rep, summary, offnode


@st.composite
def _spmv_cases(draw):
    rows = draw(st.integers(1, 300))
    ntasks = draw(st.integers(1, min(rows, 12)))
    return (rows, draw(st.integers(0, 20)), draw(st.integers(0, 5)),
            draw(st.integers(1, 3)), ntasks, draw(st.integers(1, ntasks)))


@st.composite
def _scan_cases(draw):
    """A problem, one of its ranks, a placement and a scan block size,
    with bands as wide as the matrix and one row per task included."""
    rows = draw(st.integers(1, 200))
    ntasks = draw(st.integers(1, min(rows, 12)) | st.just(rows))
    band = draw(st.integers(0, 20) | st.integers(max(0, rows - 1), rows + 3))
    return (rows, band, draw(st.integers(0, 5)), draw(st.integers(1, 3)),
            ntasks, draw(st.integers(0, ntasks - 1)),
            draw(st.integers(1, ntasks)),
            draw(st.sampled_from([1, 3, 7, spmv._SCAN_BLOCK_ROWS])))


def _evict_problems(key):
    """Push ``key``'s problem out of the ``_problem`` memo with problems of
    the same pattern (other bands)."""
    rows, band, extras, pseed, ntasks = key
    for n in range(1, spmv._problem.cache_info().maxsize + 2):
        spmv._problem(rows, band + n, extras, pseed, ntasks)


class TestSpmvMemoEqualsFresh:
    @given(_spmv_cases(), st.sampled_from(["cleared", "warm", "evicted"]))
    @settings(max_examples=120, deadline=None)
    def test_profile_inputs_and_coupling_match_a_fresh_computation(self, case, state):
        *key, tpn = case
        key = tuple(key)
        want_rep, want_summary, want_offnode = fresh_profile_inputs(*key, tpn)
        if state == "cleared":
            clear_spmv_memo()
        elif state == "evicted":
            spmv._mirror_pick(*key, tpn)
            _evict_problems(key)
            spmv._gather_summary.cache_clear()
            spmv._mirror_pick.cache_clear()
        rep, offnode = spmv._mirror_pick(*key, tpn)
        summary = spmv._gather_summary(*key, rep)
        assert (rep, tuple(summary), offnode) == (want_rep, want_summary, want_offnode)
        # Warm: the second ask is the memo, and it is the same object.
        assert spmv._mirror_pick(*key, tpn) is spmv._mirror_pick(*key, tpn)
        assert spmv._gather_summary(*key, rep) is summary
        # Every rank's coupling, from a problem of its own.
        problem = SpmvProblem(*key)
        for r in range(key[4]):
            nnz, interior, boundary, gather = fresh_coupling(*key, r)
            c = problem.coupling(r)
            assert (c.nnz, c.nnz_interior, c.nnz_boundary) == (nnz, interior, boundary)
            assert list(c.gather_cols) == list(gather)
            for p in gather:
                assert np.array_equal(c.gather_cols[p], gather[p])

    @given(_scan_cases())
    @settings(max_examples=200, deadline=None)
    def test_streamed_scan_matches_a_literal_recomputation(self, case):
        """Any scan block size, down to one row, gives the literal
        coupling, summary and representative, and the closed-form band
        terms equal the per-row sums."""
        *key, rank, tpn, block = case
        key = tuple(key)
        rows, band, extras, pseed, ntasks = key
        want = fresh_coupling(*key, rank)
        want_rep = fresh_profile_inputs(*key, tpn)[0]
        with mock.patch.object(spmv, "_SCAN_BLOCK_ROWS", block):
            clear_spmv_memo()
            problem = SpmvProblem(*key)
            c = problem.coupling(rank)
            assert (c.nnz, c.nnz_interior, c.nnz_boundary) == want[:3]
            assert list(c.gather_cols) == list(want[3])
            for p, cols in want[3].items():
                assert np.array_equal(c.gather_cols[p], cols)
            summary = spmv._gather_summary(*key, rank)
            assert tuple(summary) == fresh_summary(want, rank, ntasks)
            assert problem.representative(tpn) == want_rep
        row0, nrows = block_range(rows, ntasks, rank)
        r1 = row0 + nrows
        i = np.arange(row0, r1)
        win_lo, win_hi = np.maximum(i - band, 0), np.minimum(i + band, rows - 1)
        overhang = np.maximum(row0 - win_lo, 0) + np.maximum(win_hi - (r1 - 1), 0)
        assert spmv._band_terms(rows, band, row0, r1) == (
            int((win_hi - win_lo + 1).sum()), int(overhang.sum()))

    def test_shared_entries_are_read_only(self):
        key = (4096, 8, 2, 1, 16)
        rep, offnode = spmv._mirror_pick(*key, 4)
        assert isinstance(offnode, tuple)
        summary = spmv._gather_summary(*key, rep)
        assert isinstance(summary, tuple) and isinstance(summary.recv_plan, tuple)


_PRICE_FIELDS = ("local", "unpaired", "buffered", "lat", "frac", "rate",
                 "bg_wire", "fg_wire", "copy_s")


def price_fields(price):
    return tuple(getattr(price, name) for name in _PRICE_FIELDS)


class TestSharedSendPrices:
    """Mirror send prices are shared per (interconnect, memcpy rate)."""

    @given(st.sampled_from([JAGUARPF, LENS, A100_SXM]),
           st.sampled_from(list(ProgressModel)),
           st.lists(st.tuples(st.sampled_from([None, 1.0, 2.0, 3.0, 12.0]),
                              st.sampled_from([0, 1, 1_000, 24_576, 24_577,
                                               100_000, 10**7])),
                    min_size=1, max_size=12),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_shared_prices_match_fresh_ones(self, machine, progress, asks, cleared):
        ic = dataclasses.replace(machine.interconnect, progress=progress)
        rate = machine.node.memcpy_bandwidth_gbs * 1e9
        if cleared:
            _pricing.cache_clear()
        shared = _pricing(ic, rate)
        for share, nbytes in asks:
            got = shared.price(share, nbytes)
            assert shared.price(share, nbytes) is got
            want = _Pricing(ic, rate).price(share, nbytes)
            assert price_fields(got) == price_fields(want)

    def test_a_full_table_starts_over_with_equal_prices(self, monkeypatch):
        monkeypatch.setattr(message, "_MAX_SHARED_PRICES", 4)
        pricing = _Pricing(JAGUARPF.interconnect, 4.5e9)
        first = [price_fields(pricing.price(2.0, n)) for n in range(10)]
        assert len(pricing._prices) <= 4
        assert [price_fields(pricing.price(2.0, n)) for n in range(10)] == first

    def test_communicators_on_one_interconnect_share_prices(self):
        decomp = Decomposition(64, (420, 420, 420))
        profile = MirrorProfile.for_decomposition(JAGUARPF, decomp, 4)
        a = MirrorComm(Environment(), profile)
        b = MirrorComm(Environment(), profile)
        tag = halo_tag(1, -1)
        assert a._price(tag, 100_000) is b._price(tag, 100_000)


def fresh_plan(ext, factors):
    """A block's sweeps, literally: the flat strides of the padded box
    (longest axis innermost), each sweep's span, its nonzero taps read off
    the factor arrays, and the ping-pong lease names."""
    padded = [n + 2 for n in ext]
    strides, size = [0, 0, 0], 1
    for a in sorted(range(3), key=lambda a: (ext[a], a), reverse=True):
        strides[a] = size
        size *= padded[a]
    names = ["sep.b", "sep.a", "sep.b"]
    sweeps, tap, n = [], 0, size
    for factor, s in zip(factors, strides):
        n -= 2 * s
        nonzero = tuple((d * s, float(c)) for d, c in enumerate(factor) if c != 0)
        if len(nonzero) == 1 and nonzero[0][1] == 1.0:
            sweeps.append((None, n, nonzero))
            continue
        sweeps.append((names.pop(0), n, nonzero))
        tap = tap or (n if len(nonzero) > 1 else 0)
    return tuple(padded), size, tuple(strides), tuple(sweeps), tap


def plan_fields(plan):
    geo = plan.geo
    return geo.padded, geo.size, geo.strides, plan.sweeps, plan.tap


def _sweep_coeffs(factors):
    factors = tuple(np.array(f, dtype=np.float64) for f in factors)
    return StencilCoefficients(a=np.einsum("i,j,k->ijk", *factors),
                               velocity=(0.0, 0.0, 0.0), nu=1.0, factors=factors)


_tap = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.25, -0.7, 1e-3])
_factor = st.lists(_tap, min_size=3, max_size=3)
_extent = st.tuples(*(st.integers(1, 12) for _ in range(3)))


def _evict_plans():
    """Push every earlier plan out of the memo with other extents."""
    taps = ((0.5, 0.5, 0.5),) * 3
    for n in range(_plan.cache_info().maxsize + 1):
        _plan((100 + n, 1, 1), taps)


class TestSweepPlans:
    """Functional sweeps share one plan per (block extent, factor taps)."""

    @given(_extent, st.tuples(_factor, _factor, _factor),
           st.sampled_from(["cleared", "warm", "evicted"]), st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_plan_and_sweep_match_a_fresh_computation(self, ext, factors, state, seed):
        coeffs = _sweep_coeffs(factors)
        u = np.random.default_rng(seed).standard_normal([n + 2 for n in ext])
        want = np.zeros_like(u)
        _plan.cache_clear()
        apply_stencil_block(u, coeffs, want, (0, 0, 0), ext, arena=ScratchArena())
        if state == "cleared":
            _plan.cache_clear()
        elif state == "evicted":
            _evict_plans()
        plan = _plan(ext, coeffs.taps)
        assert _plan(ext, coeffs.taps) is plan  # the second read is the memo
        assert plan_fields(plan) == fresh_plan(ext, coeffs.factors)
        got = np.zeros_like(u)
        apply_stencil_block(u, coeffs, got, (0, 0, 0), ext, arena=ScratchArena())
        assert got.tobytes() == want.tobytes()

    def test_shared_plans_are_read_only(self):
        plan = _plan((4, 5, 6), ((0.25, 0.5, 0.25),) * 3)
        assert isinstance(plan.sweeps, tuple)
        assert all(isinstance(sweep, tuple) and isinstance(sweep[2], tuple)
                   for sweep in plan.sweeps)
        with pytest.raises(AttributeError):
            plan.tap = 0
        coeffs = _sweep_coeffs(((0.25, 0.5, 0.25),) * 3)
        with pytest.raises(ValueError, match="read-only"):
            coeffs.factors[0][0] = 1.0

    def test_a_collected_coefficient_set_leaves_no_stale_plan(self):
        """Plans are keyed by tap values, not by object identity: a new
        coefficient set that reuses a collected one's memory (and so,
        often, its ``id``) still sweeps with its own taps."""
        ext = (5, 4, 6)
        u = np.random.default_rng(7).standard_normal([n + 2 for n in ext])
        first = ((0.5, 0.25, 0.25), (0.1, 0.8, 0.1), (0.0, 0.0, 1.0))
        second = ((0.25, 0.25, 0.5), (0.3, 0.4, 0.3), (1.0, 0.0, 0.0))
        _plan.cache_clear()
        want = np.zeros_like(u)
        apply_stencil_block(u, _sweep_coeffs(second), want, (0, 0, 0), ext,
                            arena=ScratchArena())
        _plan.cache_clear()
        for _ in range(20):
            coeffs = _sweep_coeffs(first)
            apply_stencil_block(u, coeffs, np.zeros_like(u), (0, 0, 0), ext,
                                arena=ScratchArena())
            del coeffs
            gc.collect()
            got = np.zeros_like(u)
            apply_stencil_block(u, _sweep_coeffs(second), got, (0, 0, 0), ext,
                                arena=ScratchArena())
            assert got.tobytes() == want.tobytes()


def _configs():
    lens = dict(machine=LENS, cores=32, threads_per_task=4, steps=2,
                domain=(48, 48, 48), box_thickness=2)
    small = dict(lens, domain=(24, 24, 24), network="full", functional=True)
    spmv_kw = dict(steps=2, workload="spmv", workload_params=(("rows", 1 << 15),))
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
        # SpMV mirror: a CPU and the GPU variant on one problem and
        # placement, and a seeded CPU run of the same problem at another.
        RunConfig(machine=A100_SXM, implementation="hybrid_overlap", cores=256,
                  threads_per_task=16, **spmv_kw),
        RunConfig(machine=A100_SXM, implementation="nonblocking", cores=256,
                  threads_per_task=16, **spmv_kw),
        RunConfig(machine=A100_SXM, implementation="bulk", cores=256,
                  threads_per_task=8, seed=3, noise=NoiseSpec.preset("high"),
                  **spmv_kw),
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
        assert spmv._mirror_pick.cache_info().hits > 0
        assert _kernel_rate.cache_info().hits > 0
        assert _pricing.cache_info().hits > 0
        assert _plan.cache_info().hits > 0
        backward = [_outcome(_run_uncached(cfg)) for cfg in reversed(configs)]
        backward.reverse()
        for cfg, a, b, c in zip(configs, cleared, forward, backward):
            assert a == b == c, cfg.implementation
        field = np.frombuffer(cleared[-1][3])
        assert np.isfinite(field).all() and field.any()
