"""A run frees what it builds by reference counting alone.

Every object a run builds (the environment, its processes, the network,
the devices and their streams, the rank fields) must be unreachable once
``_run_uncached`` returns and must hold no reference cycle, so that
reference counting frees it at once. A cycle waits for the cyclic
collector instead: a functional GPU run's device arrays then stay
resident until a gen-2 collection, and a process that runs many
functional passes holds several runs' fields at its peak.

Each case runs its config once to warm the process-wide memos and lazy
imports, then runs it again with the cyclic collector disabled and
asserts that ``gc.collect()`` finds nothing.
"""

import gc
import weakref

import pytest

from repro.core import runner
from repro.core.config import RunConfig
from repro.core.data import RankData
from repro.core.registry import CPU_KEYS, GPU_KEYS
from repro.machines import LENS
from repro.perturb.spec import NoiseSpec
from repro.simgpu.memory import DeviceMemory

SINGLE_TASK = ("single", "gpu_resident")


def _cfg(impl, **kw):
    cores = 4 if impl in SINGLE_TASK else 16
    return RunConfig(machine=LENS, implementation=impl, cores=cores,
                     threads_per_task=4, steps=2, domain=(24, 24, 24),
                     box_thickness=2, **kw)


def _cases():
    for impl in CPU_KEYS + GPU_KEYS:
        for network in ("full", "mirror"):
            yield f"{impl}-{network}", _cfg(impl, network=network)
            yield f"{impl}-{network}-traced", _cfg(impl, network=network, trace=True)
            for noise in ("low", "high"):
                yield (f"{impl}-{network}-{noise}",
                       _cfg(impl, network=network, seed=11,
                            noise=NoiseSpec.preset(noise)))
        yield f"{impl}-functional", _cfg(impl, network="full", functional=True)


CASES = dict(_cases())


def cyclic_garbage(cfg: RunConfig) -> int:
    """Objects of one run of ``cfg`` that only the cyclic collector frees."""
    runner._run_uncached(cfg)  # warm memos and lazy imports
    gc.collect()
    gc.disable()
    try:
        runner._run_uncached(cfg)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_run_leaves_no_reference_cycle(name):
    assert cyclic_garbage(CASES[name]) == 0


def test_spmv_runs_leave_no_reference_cycle():
    for impl in ("bulk", "nonblocking", "hybrid_overlap"):
        for network in ("full", "mirror"):
            cfg = RunConfig(machine=LENS, implementation=impl, cores=16,
                            threads_per_task=4, steps=2, workload="spmv",
                            workload_params=(("rows", 1 << 12),), network=network)
            assert cyclic_garbage(cfg) == 0, (impl, network)


def test_functional_fields_die_when_the_run_returns(monkeypatch):
    """A functional ``gpu_streams`` run's device arrays and rank fields
    are freed by the time ``run`` returns, with the cyclic collector off."""
    arrays = []
    allocate, init = DeviceMemory.allocate, RankData.__init__

    def allocate_tracked(self, *args, **kwargs):
        arr = allocate(self, *args, **kwargs)
        if arr.data is not None:
            arrays.append(weakref.ref(arr.data))
        return arr

    def init_tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        arrays.extend(weakref.ref(f) for f in (self.u, self.unew))

    monkeypatch.setattr(DeviceMemory, "allocate", allocate_tracked)
    monkeypatch.setattr(RankData, "__init__", init_tracked)
    cfg = _cfg("gpu_streams", network="full", functional=True)
    gc.collect()
    gc.disable()
    try:
        result = runner.run(cfg)
        assert len(arrays) == 4 * cfg.ntasks  # two device, two host per rank
        alive = [r for r in arrays if r() is not None]
    finally:
        gc.enable()
    assert not alive
    assert result.global_field.shape == cfg.domain  # the result's own copy
