"""The trace group map of a multi-GPU, multi-node, NVLink run is pinned.

The golden traces run at most one GPU, so they never see a second PCIe
link or an NVLink fabric. This A100-SXM run has 2 nodes of 8 ranks,
4 GPUs per node (2 ranks each), 4 NIC rails per node and one NVLink
fabric per node: every kind of component the runner wires a tracer into.
The expected ids and names are the runner's documented order (ranks,
GPUs from ``GPU_GROUP_BASE``, then links from ``LINK_GROUP_BASE``: NICs,
each GPU's PCIe link, NVLink fabrics).
"""

import pytest

from repro.core.runner import run

from obs_configs import tiny_config

RANKS = {r: f"rank {r}" for r in range(16)}
GPUS = {1000 + i: f"gpu{i}" for i in range(8)}
LINKS = {
    2000: "nic0:0", 2001: "nic0:1", 2002: "nic0:2", 2003: "nic0:3",
    2004: "nic1:0", 2005: "nic1:1", 2006: "nic1:2", 2007: "nic1:3",
    2008: "gpu0-pcie", 2009: "gpu1-pcie", 2010: "gpu2-pcie", 2011: "gpu3-pcie",
    2012: "gpu4-pcie", 2013: "gpu5-pcie", 2014: "gpu6-pcie", 2015: "gpu7-pcie",
    2016: "nvlink0", 2017: "nvlink1",
}
GPU_META = {
    1000 + i: {"kernel_slots": 16, "copy_engines": 2, "nvlink": 1} for i in range(8)
}


def a100_config(impl: str):
    return tiny_config(
        impl, machine="a100-sxm", cores=256, threads_per_task=16,
        domain=(32, 32, 32),
    )


@pytest.mark.parametrize("impl", ["gpu_streams", "hybrid_overlap"])
def test_group_map(impl):
    tracer = run(a100_config(impl)).tracer
    assert tracer.group_names == {**RANKS, **GPUS, **LINKS}
    # Registration order: ranks, NICs, each GPU then its PCIe link, fabrics.
    per_gpu = [g for i in range(8) for g in (1000 + i, 2008 + i)]
    assert list(tracer.group_names) == [
        *RANKS, *range(2000, 2008), *per_gpu, 2016, 2017,
    ]
    assert tracer.meta["gpus"] == GPU_META
