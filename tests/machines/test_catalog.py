"""Table II transcription checks and catalog lookups."""

import pytest

from repro.machines import (
    A100_SXM,
    EFA_CLOUD,
    HOPPER,
    JAGUARPF,
    LENS,
    MACHINES,
    MILAN_SS11,
    YONA,
    ProgressModel,
    get_machine,
    normalize_machine_name,
)


class TestTable2Transcription:
    """Every published Table II value, verbatim."""

    @pytest.mark.parametrize(
        "machine,nodes,mem,sockets,cps,clock",
        [
            (JAGUARPF, 18688, 16, 2, 6, 2.6),
            (HOPPER, 6392, 32, 2, 12, 2.1),
            (LENS, 31, 64, 4, 4, 2.3),
            (YONA, 16, 32, 2, 6, 2.6),
        ],
    )
    def test_node_rows(self, machine, nodes, mem, sockets, cps, clock):
        assert machine.compute_nodes == nodes
        assert machine.node.memory_gb == mem
        assert machine.node.sockets == sockets
        assert machine.node.cores_per_socket == cps
        assert machine.node.clock_ghz == clock

    @pytest.mark.parametrize(
        "machine,interconnect,mpi",
        [
            (JAGUARPF, "Cray SeaStar 2+", "Cray MPT 4.0.0"),
            (HOPPER, "Cray Gemini", "Cray MPT 5.1.3"),
            (LENS, "DDR Infiniband", "OpenMPI 1.3.3"),
            (YONA, "QDR Infiniband", "OpenMPI 1.7a1"),
        ],
    )
    def test_interconnect_rows(self, machine, interconnect, mpi):
        assert machine.interconnect.name == interconnect
        assert machine.interconnect.mpi_name == mpi

    def test_gpu_rows(self):
        assert JAGUARPF.gpu is None and HOPPER.gpu is None
        assert LENS.gpu.name == "Tesla C1060" and LENS.gpu.memory_gb == 4
        assert YONA.gpu.name == "Tesla C2050" and YONA.gpu.memory_gb == 3

    def test_cores_per_gpu(self):
        """Paper: one GPU per 16 cores on Lens, per 12 on Yona."""
        assert LENS.node.cores // LENS.gpus_per_node == 16
        assert YONA.node.cores // YONA.gpus_per_node == 12
        assert not JAGUARPF.gpus_per_node

    def test_thread_options_match_section_vb(self):
        assert JAGUARPF.thread_options == (1, 2, 3, 6, 12)
        assert HOPPER.thread_options == (1, 2, 3, 6, 12, 24)
        assert LENS.thread_options == (1, 2, 4, 8, 16)
        assert YONA.thread_options == (1, 2, 3, 6, 12)

    def test_gpu_generations(self):
        """§V-C: C1060 max 512 threads/block, C2050 max 1024; warp 32."""
        assert LENS.gpu.max_threads_per_block == 512
        assert YONA.gpu.max_threads_per_block == 1024
        assert LENS.gpu.warp_size == YONA.gpu.warp_size == 32
        assert LENS.gpu.copy_engines == 1
        assert YONA.gpu.copy_engines == 2

    def test_yona_pcie_faster_than_lens(self):
        """§III: Yona has 'a faster PCIe bus'."""
        assert YONA.gpu.pcie_bandwidth_gbs > LENS.gpu.pcie_bandwidth_gbs


class TestLookup:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("yona", YONA),
            ("Yona", YONA),
            ("jaguarpf", JAGUARPF),
            ("jaguar", JAGUARPF),
            ("hopper", HOPPER),
            ("Hopper II", HOPPER),
            ("LENS", LENS),
        ],
    )
    def test_get_machine(self, name, expected):
        assert get_machine(name) is expected

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            get_machine("bluegene")

    def test_total_cores(self):
        assert JAGUARPF.total_cores == 18688 * 12
        assert HOPPER.total_cores == 6392 * 24

class TestKeyNormalization:
    """Regression: registration stripped only spaces while lookup stripped
    spaces and hyphens, so any hyphenated catalog name ("A100-SXM") was
    registered under a key ("a100-sxm") no lookup could ever produce."""

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("A100-SXM", A100_SXM),
            ("a100-sxm", A100_SXM),
            ("a100sxm", A100_SXM),
            ("A100 SXM", A100_SXM),
            ("a100", A100_SXM),
            ("Milan-SS11", MILAN_SS11),
            ("milan", MILAN_SS11),
            ("EFA-Cloud", EFA_CLOUD),
            ("efa", EFA_CLOUD),
        ],
    )
    def test_hyphenated_names_resolve(self, name, expected):
        assert get_machine(name) is expected

    def test_every_display_name_resolves(self):
        """The invariant the bug broke: a machine's own name looks it up."""
        for machine in set(MACHINES.values()):
            assert get_machine(machine.name) is machine

    def test_normalize_machine_name(self):
        assert normalize_machine_name("A100-SXM") == "a100sxm"
        assert normalize_machine_name(" Hopper II ") == "hopperii"
        assert normalize_machine_name("yona") == "yona"


class TestModernMachines:
    def test_a100_progress_and_gpu_aware(self):
        ic = A100_SXM.interconnect
        assert ic.progress is ProgressModel.HARDWARE_OFFLOAD
        assert ic.gpudirect and ic.nics_per_node == 4
        assert A100_SXM.gpu.has_nvlink
        assert A100_SXM.gpu.nvlink_bandwidth_gbs > A100_SXM.gpu.pcie_bandwidth_gbs

    def test_paper_machines_keep_manual_poll(self):
        for m in (JAGUARPF, HOPPER, LENS, YONA):
            ic = m.interconnect
            assert ic.progress is ProgressModel.MANUAL_POLL
            assert not ic.gpudirect and ic.nics_per_node == 1
            if m.gpu is not None:
                assert not m.gpu.has_nvlink

    def test_efa_uses_progress_thread(self):
        ic = EFA_CLOUD.interconnect
        assert ic.progress is ProgressModel.PROGRESS_THREAD
        assert ic.progress_tax > 0.0

    def test_milan_is_cpu_only(self):
        assert MILAN_SS11.gpu is None
        assert MILAN_SS11.interconnect.progress is ProgressModel.HARDWARE_OFFLOAD
