"""Registry and implementation-metadata tests."""

import pytest

from repro.core.base import Implementation
from repro.core.registry import (
    CPU_KEYS,
    EXTENSION_KEYS,
    GPU_KEYS,
    IMPLEMENTATIONS,
    PAPER_KEYS,
    get_implementation,
)


class TestRegistry:
    def test_papers_nine_present(self):
        assert len(PAPER_KEYS) == 9
        assert set(PAPER_KEYS) <= set(IMPLEMENTATIONS)
        assert set(PAPER_KEYS) | set(EXTENSION_KEYS) == set(IMPLEMENTATIONS)

    def test_sections_cover_iv_a_through_i(self):
        sections = {IMPLEMENTATIONS[k].section for k in PAPER_KEYS}
        assert sections == {f"IV-{c}" for c in "ABCDEFGHI"}

    def test_extensions_marked(self):
        for key in EXTENSION_KEYS:
            assert IMPLEMENTATIONS[key].section == "ext"
            assert IMPLEMENTATIONS[key].fortran_loc == 0

    def test_keys_partition_cpu_gpu(self):
        assert set(CPU_KEYS) | set(GPU_KEYS) == set(IMPLEMENTATIONS)
        assert not set(CPU_KEYS) & set(GPU_KEYS)

    def test_gpu_flags_consistent(self):
        for key in GPU_KEYS:
            assert IMPLEMENTATIONS[key].uses_gpu
        for key in CPU_KEYS:
            assert not IMPLEMENTATIONS[key].uses_gpu

    def test_mpi_flags(self):
        assert not IMPLEMENTATIONS["single"].uses_mpi
        assert not IMPLEMENTATIONS["gpu_resident"].uses_mpi
        for key in ("bulk", "nonblocking", "thread_overlap", "gpu_bulk",
                    "gpu_streams", "hybrid_bulk", "hybrid_overlap"):
            assert IMPLEMENTATIONS[key].uses_mpi

    def test_unknown_key(self):
        with pytest.raises(KeyError, match="unknown implementation"):
            get_implementation("quantum")

    def test_instances_are_singletons(self):
        assert get_implementation("bulk") is get_implementation("bulk")

    def test_all_are_implementations(self):
        for impl in IMPLEMENTATIONS.values():
            assert isinstance(impl, Implementation)
            assert impl.key and impl.title and impl.section


class TestTwoLevelRegistry:
    """The ``(workload, implementation)`` axes and their error paths."""

    def test_workload_level_resolves(self):
        from repro.workloads import get_workload

        spmv = get_workload("spmv")
        assert get_implementation("bulk", workload="spmv") is \
            spmv.implementations["bulk"]
        # The default-workload fast path still returns the old singletons.
        assert get_implementation("bulk") is IMPLEMENTATIONS["bulk"]
        assert get_implementation("bulk", workload="spmv") is not \
            get_implementation("bulk")

    def test_unknown_impl_names_both_axes(self):
        with pytest.raises(KeyError) as exc:
            get_implementation("quantum", workload="spmv")
        msg = exc.value.args[0]
        assert "'quantum'" in msg and "'spmv'" in msg
        assert "bulk" in msg  # lists the workload's known keys

    def test_near_miss_suggested_under_normalization(self):
        # Case, space and hyphen variants suggest the snake_case key
        # instead of resolving (keys enter cache keys verbatim).
        for typo in ("Hybrid-Overlap", "hybrid overlap", "HYBRID_OVERLAP"):
            with pytest.raises(KeyError, match="did you mean 'hybrid_overlap'"):
                get_implementation(typo)

    def test_cross_workload_hint(self):
        # gpu_streams exists under advection only; asking spmv for it
        # points at the workload that has it.
        with pytest.raises(KeyError, match="exists under workload 'advection'"):
            get_implementation("gpu_streams", workload="spmv")
        # unknown workload errors before the implementation axis:
        with pytest.raises(KeyError, match="unknown workload"):
            get_implementation("bulk", workload="nope")

    def test_workload_near_miss(self):
        from repro.workloads import get_workload

        with pytest.raises(KeyError, match="did you mean 'spmv'"):
            get_workload("SpMV")
        with pytest.raises(KeyError, match="did you mean 'advection'"):
            get_workload("Advection")


class TestFrozenSingletons:
    """Registry instances are shared across interleaved runs; writing to
    them used to silently bleed state between runs — now it raises."""

    def test_advection_instances_frozen(self):
        for impl in IMPLEMENTATIONS.values():
            with pytest.raises(AttributeError, match="shared singletons"):
                impl.scratch = object()

    def test_spmv_instances_frozen(self):
        from repro.workloads import get_workload

        for impl in get_workload("spmv").implementations.values():
            with pytest.raises(AttributeError, match="shared singletons"):
                impl.scratch = object()

    def test_interleaved_runs_are_bit_identical(self):
        """A run's results must not depend on what ran before it on the
        same singletons (scheduler pool / serve daemon interleaving)."""
        from repro.core.config import RunConfig
        from repro.core.runner import run
        from repro.machines import JAGUARPF, YONA

        adv = RunConfig(machine=YONA, implementation="hybrid_overlap",
                        cores=12, threads_per_task=6, steps=2)
        spmv = RunConfig(machine=JAGUARPF, implementation="nonblocking",
                         cores=24, threads_per_task=6, steps=2,
                         workload="spmv",
                         workload_params=(("rows", 1 << 15),))
        first = run(adv)
        run(spmv)  # interleave a different workload on shared machinery
        second = run(adv)
        assert second.elapsed_s == first.elapsed_s
        assert second.phases == first.phases
        assert second.comm_stats == first.comm_stats


class TestFig2Loc:
    """Fig. 2's stated and derived Fortran line counts."""

    def test_exact_values_from_paper(self):
        assert IMPLEMENTATIONS["single"].fortran_loc == 215
        assert IMPLEMENTATIONS["hybrid_overlap"].fortran_loc == 860  # exactly 4x

    def test_mpi_adds_57_to_73_percent(self):
        base = IMPLEMENTATIONS["single"].fortran_loc
        for key in ("bulk", "nonblocking", "thread_overlap"):
            ratio = IMPLEMENTATIONS[key].fortran_loc / base
            assert 1.57 <= ratio <= 1.74

    def test_nonblocking_adds_the_most(self):
        assert (
            IMPLEMENTATIONS["nonblocking"].fortran_loc
            > IMPLEMENTATIONS["bulk"].fortran_loc
        )
        assert (
            IMPLEMENTATIONS["nonblocking"].fortran_loc
            > IMPLEMENTATIONS["thread_overlap"].fortran_loc
        )

    def test_cuda_adds_6_percent(self):
        base = IMPLEMENTATIONS["single"].fortran_loc
        assert IMPLEMENTATIONS["gpu_resident"].fortran_loc == pytest.approx(
            base * 1.06, abs=1
        )

    def test_gpu_mpi_almost_triples(self):
        base = IMPLEMENTATIONS["single"].fortran_loc
        for key in ("gpu_bulk", "gpu_streams"):
            ratio = IMPLEMENTATIONS[key].fortran_loc / base
            assert 2.5 < ratio < 3.2

    def test_hybrid_most_expensive(self):
        locs = {k: i.fortran_loc for k, i in IMPLEMENTATIONS.items()}
        assert max(locs, key=locs.get) == "hybrid_overlap"
