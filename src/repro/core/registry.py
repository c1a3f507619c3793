"""Two-level ``(workload, implementation)`` registry.

The first level is the workload (:mod:`repro.workloads`; ``advection``
is the default and the pre-workload behaviour), the second level is that
workload's implementation set. This module keeps the historical
module-level names — :data:`IMPLEMENTATIONS` and the key tuples are the
*advection* level, exactly as before the workload layer existed — so
every pre-existing import keeps working unchanged.

Lookup errors name both axes and suggest near-misses: a typo'd key is
checked against the workload's keys under the same normalization as
machine names (case, spaces, hyphen/underscore), and a key that exists
under a *different* workload is pointed there.
"""

from __future__ import annotations

from typing import Dict

from repro.core.base import Implementation, freeze_implementations
from repro.core.bulk_direct import BulkDirectMPI
from repro.core.bulk_mpi import BulkSyncMPI
from repro.core.gpu_bulk_mpi import GpuBulkMPI
from repro.core.gpu_resident import GpuResident
from repro.core.gpu_streams_mpi import GpuStreamsMPI
from repro.core.hybrid_bulk import HybridBulkMPI
from repro.core.hybrid_overlap import HybridOverlapMPI
from repro.core.nonblocking_mpi import NonblockingOverlapMPI
from repro.core.single_task import SingleTask
from repro.core.thread_overlap_mpi import ThreadOverlapMPI

__all__ = [
    "IMPLEMENTATIONS",
    "get_implementation",
    "CPU_KEYS",
    "GPU_KEYS",
    "PAPER_KEYS",
    "EXTENSION_KEYS",
]

#: key -> frozen singleton: the advection level of the registry — the
#: paper's nine (§IV order), then extensions.
IMPLEMENTATIONS: Dict[str, Implementation] = freeze_implementations(
    SingleTask(),
    BulkSyncMPI(),
    NonblockingOverlapMPI(),
    ThreadOverlapMPI(),
    GpuResident(),
    GpuBulkMPI(),
    GpuStreamsMPI(),
    HybridBulkMPI(),
    HybridOverlapMPI(),
    BulkDirectMPI(),
)

#: The paper's §IV implementations, in order.
PAPER_KEYS = (
    "single", "bulk", "nonblocking", "thread_overlap", "gpu_resident",
    "gpu_bulk", "gpu_streams", "hybrid_bulk", "hybrid_overlap",
)
#: Extensions beyond the paper (DESIGN.md §7).
EXTENSION_KEYS = ("bulk_direct",)
#: CPU-only implementation keys (plotted on all four machines).
CPU_KEYS = ("single", "bulk", "nonblocking", "thread_overlap", "bulk_direct")
#: GPU implementation keys (plotted on Lens and Yona only).
GPU_KEYS = ("gpu_resident", "gpu_bulk", "gpu_streams", "hybrid_bulk", "hybrid_overlap")


def get_implementation(key: str, workload: str = "advection") -> Implementation:
    """Look up an implementation by ``(workload, key)``.

    Unknown keys raise a :class:`KeyError` that names both axes, suggests
    the normalized near-miss (``"Hybrid-Overlap"`` -> ``hybrid_overlap``)
    and, when the key exists under another workload, says which.
    """
    # Fast path: the default workload resolves without touching the
    # workload registry (the hot lookup of every pre-workload caller).
    if workload == "advection" and key in IMPLEMENTATIONS:
        return IMPLEMENTATIONS[key]

    from repro.workloads import WORKLOADS, get_workload, suggest_key

    wl = get_workload(workload)  # raises the two-axis workload error
    impls = wl.implementations
    if key in impls:
        return impls[key]
    near = suggest_key(key, impls)
    if near is not None:
        hint = f"; did you mean {near!r}?"
    else:
        elsewhere = sorted(
            w for w, other in WORKLOADS.items()
            if w != wl.key and key in other.implementations
        )
        if elsewhere:
            hint = (
                f"; it exists under workload"
                f"{'s' if len(elsewhere) > 1 else ''} "
                + ", ".join(repr(w) for w in elsewhere)
            )
        else:
            hint = ""
    raise KeyError(
        f"unknown implementation {key!r} for workload {wl.key!r}{hint} "
        f"(known {wl.key} implementations: {sorted(impls)})"
    )
