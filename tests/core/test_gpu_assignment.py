"""Regression tests for task→GPU assignment with several GPUs per node."""

import dataclasses

import pytest

from repro.core.config import RunConfig
from repro.core.registry import get_implementation
from repro.core.runner import _build_full, _tasks_per_gpu, run
from repro.decomp.partition import Decomposition
from repro.des import Environment
from repro.machines import YONA
from repro.workloads import get_workload


def _yona_with_gpus(gpus_per_node: int):
    return dataclasses.replace(YONA, gpus_per_node=gpus_per_node)


class TestTasksPerGpu:
    def test_single_gpu_node_serializes_all_tasks(self):
        cfg = RunConfig(machine=YONA, implementation="gpu_bulk", cores=12,
                        threads_per_task=3)
        assert cfg.tasks_per_node == 4
        assert _tasks_per_gpu(cfg) == 4

    def test_two_gpus_per_node_halve_the_sharing(self):
        cfg = RunConfig(machine=_yona_with_gpus(2), implementation="gpu_bulk",
                        cores=12, threads_per_task=3)
        assert _tasks_per_gpu(cfg) == 2

    def test_more_gpus_than_tasks_never_below_one(self):
        cfg = RunConfig(machine=_yona_with_gpus(8), implementation="gpu_bulk",
                        cores=12, threads_per_task=12)
        assert _tasks_per_gpu(cfg) == 1

    def test_cpu_machine_default_counts_as_one(self):
        from repro.machines import JAGUARPF

        cfg = RunConfig(machine=JAGUARPF, implementation="bulk", cores=12,
                        threads_per_task=12)
        assert JAGUARPF.gpus_per_node == 0
        assert _tasks_per_gpu(cfg) == 1


class TestFullBackendGpuWiring:
    def _contexts(self, machine, cores, threads):
        cfg = RunConfig(machine=machine, implementation="gpu_bulk",
                        cores=cores, threads_per_task=threads,
                        domain=(48, 48, 48), network="full")
        impl = get_implementation(cfg.implementation)
        env = Environment()
        decomp = Decomposition(cfg.ntasks, cfg.domain)
        workload = get_workload(cfg.workload)
        contexts, _components = _build_full(env, cfg, impl, workload, decomp)
        return cfg, contexts

    def test_one_gpu_per_node_is_shared_by_the_node(self):
        _cfg, ctxs = self._contexts(YONA, 12, 3)  # 4 tasks, 1 node, 1 GPU
        gpus = {id(c.gpu) for c in ctxs}
        assert len(gpus) == 1

    def test_two_gpus_per_node_split_contiguously(self):
        _cfg, ctxs = self._contexts(_yona_with_gpus(2), 12, 3)
        # tasks_per_gpu = 2: ranks {0,1} share gpu0, ranks {2,3} share gpu1.
        assert ctxs[0].gpu is ctxs[1].gpu
        assert ctxs[2].gpu is ctxs[3].gpu
        assert ctxs[0].gpu is not ctxs[2].gpu

    def test_multi_node_assignment_does_not_alias_across_nodes(self):
        _cfg, ctxs = self._contexts(_yona_with_gpus(2), 24, 6)
        # 4 tasks over 2 nodes (2 per node), 2 GPUs per node -> 1 task/GPU.
        assert len({id(c.gpu) for c in ctxs}) == 4

    def test_end_to_end_run_with_two_gpus_per_node(self):
        """More GPUs per node must not run slower than one (less sharing)."""
        shared = run(RunConfig(machine=YONA, implementation="gpu_bulk",
                               cores=12, threads_per_task=3,
                               domain=(48, 48, 48), network="full"))
        split = run(RunConfig(machine=_yona_with_gpus(2),
                              implementation="gpu_bulk", cores=12,
                              threads_per_task=3, domain=(48, 48, 48),
                              network="full"))
        assert split.elapsed_s <= shared.elapsed_s * (1 + 1e-9)
