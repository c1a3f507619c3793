"""The default workload: the paper's 3-D Lax–Wendroff advection stencil.

This module is a thin adapter: every hook delegates to the exact code the
pre-workload simulator called directly from :mod:`repro.core.runner`
(``Decomposition``, ``RankData``, ``MirrorProfile.for_decomposition``,
the analytic-solution oracle), so a config with ``workload`` at its
default runs the same instruction path and produces bit-identical
results, traces and cache entries.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.config import RunConfig, RunResult
from repro.core.data import RankData
from repro.decomp.partition import Decomposition, Subdomain, shared_decomposition
from repro.simmpi.mirror import MirrorProfile
from repro.stencil.analytic import analytic_solution, error_norms
from repro.stencil.coefficients import FLOPS_PER_POINT
from repro.stencil.grid import Grid3D
from repro.workloads import Workload

__all__ = ["AdvectionWorkload"]


class AdvectionWorkload(Workload):
    """Paper §IV: nine implementations of the same advection step."""

    key = "advection"
    title = "3-D Lax-Wendroff advection (paper SS IV)"

    @property
    def implementations(self):
        from repro.core.registry import IMPLEMENTATIONS

        return IMPLEMENTATIONS

    @property
    def cpu_keys(self):
        from repro.core.registry import CPU_KEYS

        return CPU_KEYS

    @property
    def gpu_keys(self):
        from repro.core.registry import GPU_KEYS

        return GPU_KEYS

    def decompose(self, cfg: RunConfig) -> Decomposition:
        # One shared, lazily filled decomposition per (ntasks, domain).
        return shared_decomposition(cfg.ntasks, tuple(cfg.domain))

    def make_data(self, cfg: RunConfig, sub: Subdomain) -> RankData:
        return RankData(cfg, sub)

    def mirror_profile(self, cfg: RunConfig, decomp: Decomposition) -> MirrorProfile:
        return MirrorProfile.for_decomposition(
            cfg.machine, decomp, cfg.tasks_per_node
        )

    def total_flops(self, cfg: RunConfig) -> float:
        # Same expression (and evaluation order) as the pre-workload
        # RunResult.gflops numerator, for bit-identical reporting.
        return cfg.total_points * FLOPS_PER_POINT * cfg.steps

    def finalize_functional(
        self, cfg: RunConfig, contexts: List, result: RunResult
    ) -> None:
        field = _gather_field(cfg, contexts)
        grid = Grid3D(cfg.domain)
        dt = cfg.nu * grid.min_spacing
        exact = analytic_solution(
            grid, cfg.velocity, time=cfg.steps * dt, sigma=cfg.sigma
        )
        result.global_field = field
        result.norms = error_norms(field, exact)


def _gather_field(cfg: RunConfig, contexts: List) -> np.ndarray:
    """Assemble the global field from the per-rank interiors."""
    out = np.zeros(cfg.domain)
    for ctx in contexts:
        view = ctx.data.interior_view()
        sl = tuple(
            slice(o, o + s) for o, s in zip(ctx.sub.offset, ctx.sub.shape)
        )
        out[sl] = view
    return out
