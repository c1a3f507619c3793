"""SpMV workload tests: pattern determinism, functional exactness,
the SS V-E overlap ordering, and trace invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import A100_SXM, JAGUARPF, YONA
from repro.obs.invariants import assert_invariants
from repro.workloads import get_workload, spmv
from repro.workloads.spmv import (
    DEFAULT_SPMV_PARAMS,
    SpmvProblem,
    gather_tag,
    initial_x,
    spmv_params,
)

SMALL = (("rows", 1 << 12), ("band", 8), ("extras", 2))
#: the fast-experiment problem size: enough interior work that overlap
#: has something to hide the gather under (the SS V-E regime).
MEDIUM = (("rows", 1 << 17),)


def _cfg(machine, impl, cores, threads, **kw):
    kw.setdefault("workload_params", SMALL)
    return RunConfig(machine=machine, implementation=impl, cores=cores,
                     threads_per_task=threads, steps=2, workload="spmv", **kw)


class TestProblem:
    """The matrix pattern is a pure function of (params, row) alone."""

    def test_pattern_identical_across_task_counts(self):
        # A rank's stream is band-entries-then-extras for *its block*, so
        # streams are compared in the canonical per-row order: a stable
        # sort by global row preserves each row's internal order (band
        # ascending, then extras in draw order) in both streams.
        def canonical(rws, cols, vals):
            order = np.argsort(rws, kind="stable")
            return rws[order], cols[order], vals[order]

        rows, band, extras, pseed = 4096, 8, 2, 1
        one = SpmvProblem(rows, band, extras, pseed, 1)
        rws1, cols1, vals1 = canonical(*one.triplets(0))
        for ntasks in (2, 3, 7):
            parts = SpmvProblem(rows, band, extras, pseed, ntasks)
            rws, cols, vals = [], [], []
            for r in range(ntasks):
                row0, _ = parts.block(r)
                a, b, c = parts.triplets(r)
                rws.append(a + row0)
                cols.append(b)
                vals.append(c)
            got = canonical(
                np.concatenate(rws), np.concatenate(cols), np.concatenate(vals)
            )
            assert np.array_equal(got[0], rws1)
            assert np.array_equal(got[1], cols1)
            # bitwise, not approx: the value stream is keyed globally
            assert np.array_equal(got[2], vals1)

    def test_nnz_split_is_consistent(self):
        pr = SpmvProblem(4096, 8, 2, 1, 4)
        total = 0
        for r in range(4):
            c = pr.coupling(r)
            assert c.nnz_interior + c.nnz_boundary == c.nnz
            assert c.nnz_interior >= 0 and c.nnz_boundary >= 0
            total += c.nnz
        assert total == pr.nnz_total

    def test_interior_dominates_at_scale(self):
        # The point of the workload: the non-local matrix part is a small
        # slice, so there is compute to hide the gather under.
        pr = SpmvProblem(1 << 16, 48, 4, 1, 8)
        c = pr.coupling(3)
        assert c.nnz_interior > 10 * c.nnz_boundary

    def test_gather_plan_covers_exactly_the_remote_columns(self):
        pr = SpmvProblem(4096, 8, 2, 1, 4)
        for r in range(4):
            c = pr.coupling(r)
            row0, nrows = pr.block(r)
            _, cols, _ = pr.triplets(r)
            remote = np.unique(cols[(cols < row0) | (cols >= row0 + nrows)])
            planned = np.concatenate(
                [c.gather_cols[p] for p in c.peers]
            ) if c.peers else np.empty(0, dtype=np.int64)
            assert np.array_equal(np.sort(planned), remote)
            owners = pr.owner_of(planned)
            for p, cs in c.gather_cols.items():
                lo, n = pr.block(p)
                assert ((cs >= lo) & (cs < lo + n)).all()
            assert (owners != r).all()

    @pytest.mark.parametrize("rows", [1000, 4096, 1 << 20])
    def test_extra_columns_match_the_scalar_generator(self, rows):
        """The vectorized draws (a bit mask for power-of-two ``rows``)
        equal SplitMix64 evaluated on Python ints."""
        mask = (1 << 64) - 1

        def draw(pseed, row, j):
            z = ((pseed * 0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9) & mask
                 ^ (row * 0xA24BAED4963EE407) & mask
                 ^ (j * 0x9FB21C651E98DF25) & mask)
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return (z ^ (z >> 31)) % rows

        lo = rows // 3
        got = spmv._extra_cols(rows, 3, 2, lo, lo + 40)
        assert got.tolist() == [[draw(2, lo + i, j) for j in range(3)]
                                for i in range(40)]

    def test_pair_tags_are_symmetric_and_disjoint(self):
        n = 7
        tags = set()
        for a in range(n):
            for b in range(a + 1, n):
                assert gather_tag(a, b, n) == gather_tag(b, a, n)
                tags.add(gather_tag(a, b, n))
        assert len(tags) == n * (n - 1) // 2  # no pair collisions

    def test_initial_x_is_partition_independent(self):
        full = initial_x(1, 0, 1000)
        assert np.array_equal(
            np.concatenate([initial_x(1, 0, 400), initial_x(1, 400, 1000)]),
            full,
        )


def _brute_coupling(pr, rank):
    """Literal per-rank coupling: np.unique plus one owner mask per peer."""
    row0, nrows = pr.block(rank)
    r1 = row0 + nrows
    _, cols, _ = pr.triplets(rank)
    remote = np.unique(cols[(cols < row0) | (cols >= r1)])
    owners = pr.owner_of(remote)
    return {int(p): remote[owners == p] for p in np.unique(owners)}


def _brute_representative(pr, tpn):
    """The node-0 scan: build every coupling, keep the first max."""
    def offnode_bytes(r):
        cols = _brute_coupling(pr, r)
        return sum(8 * len(c) for p, c in cols.items() if p // tpn != 0)

    return max(range(tpn), key=offnode_bytes)


@st.composite
def _spmv_shapes(draw):
    rows = draw(st.integers(1, 400))
    ntasks = draw(st.integers(1, min(rows, 12)))
    return (rows, draw(st.integers(0, 24)), draw(st.integers(0, 5)),
            draw(st.integers(1, 3)), ntasks, draw(st.integers(1, 16)))


class TestRepresentative:
    """The one-pass representative pick and the O(n) gather split against
    the literal per-rank scan they replace."""

    @given(shape=_spmv_shapes())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_scan(self, shape):
        rows, band, extras, pseed, ntasks, tpn = shape
        pr = SpmvProblem(rows, band, extras, pseed, ntasks)
        tpn = min(tpn, ntasks)
        assert pr.representative(tpn) == _brute_representative(pr, tpn)
        for r in range(ntasks):
            want = _brute_coupling(pr, r)
            got = pr.coupling(r).gather_cols
            assert list(got) == list(want)
            for p in want:
                assert np.array_equal(got[p], want[p])

    @pytest.mark.parametrize("band,extras", [(0, 0), (0, 3), (6, 0), (500, 2)])
    @pytest.mark.parametrize("tpn", [1, 3, 8, 50])
    def test_edge_shapes(self, band, extras, tpn):
        pr = SpmvProblem(240, band, extras, 1, 8)
        tpn = min(tpn, 8)
        assert pr.representative(tpn) == _brute_representative(pr, tpn)

    def test_single_node_picks_rank_zero(self):
        pr = SpmvProblem(4096, 8, 2, 1, 4)
        assert pr.representative(4) == 0

    def test_memoized_without_node_couplings(self):
        pr = SpmvProblem(1 << 14, 8, 4, 1, 64)
        rep = pr.representative(16)
        assert pr.representative(16) == rep
        assert pr._representative == {16: rep}
        assert pr._coupling == {}  # no per-rank coupling was built

    def test_mirror_profile_builds_only_the_representative(self):
        """The profile picks the representative and counts its summary
        from the scan: no rank's coupling is built, not even its own."""
        cfg = _cfg(JAGUARPF, "bulk", 96, 6)
        wl = get_workload("spmv")
        part = wl.decompose(cfg)
        part.problem._coupling.clear()
        # A profile whose inputs an earlier run left in the process-wide
        # memos builds nothing; clear them so this one has to build.
        spmv._mirror_pick.cache_clear()
        spmv._gather_summary.cache_clear()
        wl.mirror_profile(cfg, part)
        assert part.problem._coupling == {}


def _numpy_leaves(value):
    """Every ndarray or NumPy scalar inside nested tuples."""
    if isinstance(value, tuple):
        return [x for v in value for x in _numpy_leaves(v)]
    return [value] if isinstance(value, (np.ndarray, np.generic)) else []


class TestSetupMemory:
    """The profile inputs at the default problem size stay within a
    fixed budget, whatever the task count (the parent of the streamed
    scan peaked at 44-88 MB here)."""

    @pytest.mark.parametrize("ntasks,tpn", [(1, 1), (2, 1), (12, 12), (96, 12)])
    def test_profile_inputs_stay_within_four_mib(self, ntasks, tpn):
        key = (1 << 20, 48, 4, 1, ntasks)
        for memo in (spmv._problem, spmv._gather_summary, spmv._mirror_pick):
            memo.cache_clear()
        tracemalloc.start()
        try:
            rep, offnode = spmv._mirror_pick(*key, tpn)
            summary = spmv._gather_summary(*key, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20, f"{peak / 2**20:.1f} MiB"
        # The memos keep tuples of ints; the problem keeps its row starts.
        assert _numpy_leaves((rep, offnode, tuple(summary))) == []
        problem = spmv._problem(*key)
        assert problem._coupling == {}
        assert [name for name, v in vars(problem).items()
                if isinstance(v, np.ndarray)] == ["_starts"]


class TestParams:
    def test_defaults_applied(self):
        cfg = _cfg(JAGUARPF, "bulk", 12, 6, workload_params=())
        assert spmv_params(cfg) == tuple(
            DEFAULT_SPMV_PARAMS[k] for k in ("rows", "band", "extras", "pseed")
        )

    def test_unknown_param_rejected(self):
        cfg = _cfg(JAGUARPF, "bulk", 12, 6,
                   workload_params=(("cols", 7),))
        with pytest.raises(ValueError, match="unknown spmv workload_params"):
            spmv_params(cfg)

    def test_stencil_axes_rejected(self):
        with pytest.raises(ValueError, match="no box_thickness axis"):
            run(_cfg(YONA, "hybrid_overlap", 12, 6, box_thickness=2))

    def test_too_many_tasks_rejected(self):
        cfg = _cfg(JAGUARPF, "bulk", 384, 1,
                   workload_params=(("rows", 100),))
        with pytest.raises(ValueError, match="non-empty row blocks"):
            run(cfg)

    def test_gpu_variant_rejects_functional(self):
        with pytest.raises(ValueError, match="functional verification"):
            run(_cfg(YONA, "hybrid_overlap", 12, 6, functional=True,
                     network="full"))


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        cfg = _cfg(JAGUARPF, "nonblocking", 24, 6)
        a, b = run(cfg), run(cfg)
        assert a.elapsed_s == b.elapsed_s
        assert a.phases == b.phases
        assert a.comm_stats == b.comm_stats

    def test_scheduler_workers_bit_identical(self):
        """jobs=2 worker processes reproduce the serial results exactly."""
        from repro.sched import scheduled

        cfgs = [
            _cfg(JAGUARPF, impl, cores, 6)
            for impl in ("bulk", "nonblocking")
            for cores in (24, 48)
        ]
        serial = [run(c) for c in cfgs]
        with scheduled(2) as sched:
            parallel = sched.map(cfgs)
        assert [r.elapsed_s for r in parallel] == \
            [r.elapsed_s for r in serial]
        assert [r.phases for r in parallel] == [r.phases for r in serial]

    def test_noise_seed_enters_spmv_runs(self):
        from repro.perturb import NoiseSpec

        base = _cfg(JAGUARPF, "bulk", 24, 6)
        noise = NoiseSpec.preset("medium")
        a = run(base.with_(seed=1, noise=noise))
        b = run(base.with_(seed=2, noise=noise))
        a2 = run(base.with_(seed=1, noise=noise))
        assert a.elapsed_s != b.elapsed_s  # seeds perturb
        assert a.elapsed_s == a2.elapsed_s  # reproducibly


class TestFunctional:
    def _functional(self, impl, cores, threads):
        cfg = _cfg(JAGUARPF, impl, cores, threads, functional=True,
                   network="full")
        return run(cfg)

    def test_exact_vs_global_oracle(self):
        r = self._functional("bulk", 24, 6)
        assert r.norms["l2"] == 0.0
        assert r.norms["linf"] == 0.0

    def test_iterate_bitwise_identical_across_partitions(self):
        fields = [
            self._functional("bulk", cores, 6).global_field
            for cores in (12, 24, 48)
        ]
        assert np.array_equal(fields[0], fields[1])
        assert np.array_equal(fields[0], fields[2])

    def test_variants_agree_bitwise(self):
        bulk = self._functional("bulk", 24, 6).global_field
        nonb = self._functional("nonblocking", 24, 6).global_field
        assert np.array_equal(bulk, nonb)


class TestOverlapOrdering:
    """The SS V-E analysis on the SpMV workload: the GPU task mode hides
    the most communication, the naive nonblocking variant some, and
    vector mode none by construction."""

    @pytest.fixture(scope="class")
    def fractions(self):
        out = {}
        for impl in ("bulk", "nonblocking", "hybrid_overlap"):
            r = run(_cfg(YONA, impl, 48, 6, trace=True,
                         workload_params=MEDIUM))
            assert_invariants(r.tracer)
            out[impl] = r.overlap.overlap_fraction
        return out

    def test_ordering_pinned(self, fractions):
        assert fractions["hybrid_overlap"] > fractions["nonblocking"]
        assert fractions["nonblocking"] > fractions["bulk"]

    def test_vector_mode_hides_nothing(self, fractions):
        assert fractions["bulk"] == 0.0


class TestTraceInvariants:
    @pytest.mark.parametrize("machine,impl,cores,threads", [
        (JAGUARPF, "bulk", 24, 6),
        (JAGUARPF, "nonblocking", 24, 6),
        (YONA, "hybrid_overlap", 24, 6),
        (A100_SXM, "hybrid_overlap", 256, 16),
    ])
    def test_traced_runs_pass(self, machine, impl, cores, threads):
        r = run(_cfg(machine, impl, cores, threads, trace=True))
        assert_invariants(r.tracer)

    def test_full_backend_traced_run_passes(self):
        r = run(_cfg(JAGUARPF, "nonblocking", 24, 6, trace=True,
                     network="full"))
        assert_invariants(r.tracer)

    def test_trace_meta_names_the_workload(self):
        r = run(_cfg(JAGUARPF, "bulk", 24, 6, trace=True))
        assert r.tracer.meta["workload"] == "spmv"
        assert r.tracer.meta["workload_params"] == dict(SMALL)
        adv = RunConfig(machine=JAGUARPF, implementation="bulk", cores=24,
                        threads_per_task=6, steps=2, trace=True)
        t = run(adv).tracer
        # default workload leaves the pre-PR meta untouched (golden traces)
        assert "workload" not in t.meta


class TestAccounting:
    def test_gflops_uses_the_workload_flops(self):
        cfg = _cfg(JAGUARPF, "bulk", 24, 6)
        r = run(cfg)
        wl = get_workload("spmv")
        expect = wl.total_flops(cfg) / r.elapsed_s / 1e9
        assert r.gflops == pytest.approx(expect)

    def test_gpu_task_mode_wins_on_the_gpu_machine(self):
        gf = {
            impl: run(_cfg(A100_SXM, impl, 256, 16,
                           workload_params=MEDIUM)).gflops
            for impl in ("bulk", "nonblocking", "hybrid_overlap")
        }
        assert gf["hybrid_overlap"] > gf["bulk"]
        assert gf["hybrid_overlap"] > gf["nonblocking"]
