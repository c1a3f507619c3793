"""§IV-E: GPU resident — the whole problem lives in GPU global memory."""

from __future__ import annotations

import numpy as np

from repro.core.base import Implementation
from repro.core.context import RankContext
from repro.stencil.kernels import apply_stencil, fill_periodic_halo, interior

__all__ = ["GpuResident"]


class GpuResident(Implementation):
    """Best-case GPU scenario: no CPU-GPU traffic during the run.

    One CUDA kernel per time step over the whole (haloed) domain; halo
    threads implement periodicity by copying the opposite boundary; the two
    state arrays are flipped between kernel arguments so no copy step is
    needed (paper §IV-E, after [6]). The CPU and GPU synchronize immediately
    before the timer calls, and the initial/final transfers are excluded
    from the measurement — both properties the runner honors.
    """

    key = "gpu_resident"
    title = "GPU resident"
    section = "IV-E"
    fortran_loc = 228  # 215 + 6% (paper: "just 6% more lines")
    uses_mpi = False
    uses_gpu = True

    def setup(self, ctx: RankContext):
        gpu = ctx.gpu
        st = ctx.state
        st["stream"] = gpu.stream("compute")
        st["u"] = gpu.memory.allocate("u", [s + 2 for s in ctx.sub.shape], ctx.cfg.functional)
        st["unew"] = gpu.memory.allocate(
            "unew", [s + 2 for s in ctx.sub.shape], ctx.cfg.functional
        )
        if ctx.cfg.functional:
            # Initial H2D copy — outside the measurement, per the paper.
            interior(st["u"].data)[...] = interior(ctx.data.u)
            yield ctx.h2d(st["stream"], st["u"].nbytes)

    def step(self, ctx: RankContext, index: int):
        st = ctx.state
        coeffs = ctx.data.coeffs
        u_dev, unew_dev = st["u"], st["unew"]

        def kernel_body():
            if u_dev.functional:
                fill_periodic_halo(u_dev.data)
                apply_stencil(u_dev.data, coeffs, out=unew_dev.data)

        yield ctx.launch_cost(1)
        ctx.stencil_kernel(
            st["stream"], ctx.sub.points, shape=ctx.sub.shape, action=kernel_body
        )
        # Flip the kernel arguments for the next step (host-side bookkeeping;
        # the actions above close over the arrays flipped *now*, preserving
        # issue order exactly like flipped CUDA kernel arguments do).
        st["u"], st["unew"] = st["unew"], st["u"]

    def drain(self, ctx: RankContext):
        if ctx.cfg.functional:
            st = ctx.state
            yield ctx.gpu.synchronize()
            # Final D2H — outside the measurement, per the paper.
            yield ctx.d2h(st["stream"], st["u"].nbytes)
            interior(ctx.data.u)[...] = interior(st["u"].data)
