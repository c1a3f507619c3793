"""Run configurations and golden-trace helpers of the observability suite.

Imported by name (``from obs_configs import ...``) from the tests in this
directory and from ``tools/update_golden_traces.py``. A plain ``conftest``
import would resolve to whichever ``conftest.py`` pytest loaded first,
e.g. ``benchmarks/conftest.py`` when both trees are collected in one run.
"""

from collections import Counter

from repro.core.config import RunConfig
from repro.core.registry import IMPLEMENTATIONS, get_implementation
from repro.machines import get_machine


def tiny_config(impl: str, machine: str = "yona", **kw) -> RunConfig:
    """A 16^3 full-network config that runs in milliseconds."""
    defaults = dict(
        machine=get_machine(machine),
        implementation=impl,
        cores=12,
        threads_per_task=3,
        steps=2,
        domain=(16, 16, 16),
        network="full",
        trace=True,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


# -- golden traces (shared with tools/update_golden_traces.py) ---------------

def golden_config(key: str) -> RunConfig:
    """The committed-golden configuration of one implementation."""
    impl = get_implementation(key)
    return tiny_config(
        key,
        machine="yona" if impl.uses_gpu else "jaguarpf",
        threads_per_task=3 if impl.uses_mpi else 12,
    )


def golden_keys():
    """Implementation keys covered by the golden traces (all of them)."""
    return sorted(IMPLEMENTATIONS)


#: Mirror-backend golden runs, ``workload/implementation``: the mirror
#: records its own background/foreground transfer intervals, which the
#: full-network entries above never exercise.
MIRROR_GOLDEN_KEYS = (
    "advection/bulk",
    "advection/gpu_streams",
    "advection/hybrid_overlap",
    "advection/nonblocking",
    "spmv/hybrid_overlap",
)


def golden_mirror_config(key: str) -> RunConfig:
    """The committed-golden mirror configuration of ``workload/impl``.

    Four nodes' worth of ranks, so halo faces cross the NIC as well as
    staying on-node. The SpMV run sits on A100-SXM, whose hardware-offload
    progress moves background wire time onto the ``progress`` lane, and
    its gathers straddle the eager threshold.
    """
    workload, impl = key.split("/")
    if workload == "spmv":
        return tiny_config(
            impl, machine="a100-sxm", cores=256, threads_per_task=16,
            network="mirror", workload="spmv", workload_params=(("rows", 1 << 15),),
        )
    return golden_config(impl).with_(network="mirror", cores=48, domain=(32, 32, 32))


def golden_summary(result) -> dict:
    """The committed per-run trace summary (counts exact, floats to rtol)."""
    tracer = result.tracer
    lanes = Counter(ev.lane for ev in tracer.events)
    marks = Counter(
        ev.name for ev in tracer.events
        if ev.lane == "mpi" and ev.name in ("isend", "irecv")
    )
    return {
        "n_events": len(tracer.events),
        "events_per_lane": dict(sorted(lanes.items())),
        "mpi_posts": dict(sorted(marks.items())),
        "n_counter_samples": len(tracer.counters),
        "overlap_fraction": result.overlap.overlap_fraction,
        "elapsed_s": result.elapsed_s,
    }
