"""§IV-H: CPU and GPU computation with bulk-synchronous MPI."""

from __future__ import annotations

from repro.core.base import Implementation
from repro.core.context import RankContext
from repro.core.exchange import bulk_exchange
from repro.core.gpu_common import copy_box_dev_to_host, copy_box_host_to_dev
from repro.core.hybrid_common import (
    HybridGeometry,
    hybrid_drain,
    hybrid_setup,
    hybrid_validate,
)
from repro.machines.calibration import WALL_COMPUTE_EFFICIENCY
from repro.stencil.kernels import apply_stencil_block

__all__ = ["HybridBulkMPI"]


class HybridBulkMPI(Implementation):
    """Fig. 1's decomposition, communication up front, compute overlapped.

    A task starts each step by exchanging inner halo/boundary buffers with
    the GPU and outer halos/boundaries with other tasks through MPI, all
    bulk-synchronous; it then issues the GPU kernel for the block and
    computes the box walls on the CPUs concurrently (paper §IV-H).
    """

    key = "hybrid_bulk"
    title = "CPU+GPU, bulk-synchronous MPI"
    section = "IV-H"
    fortran_loc = 800  # between the GPU+MPI codes and the 860-line §IV-I
    uses_mpi = True
    uses_gpu = True

    def validate(self, cfg):
        hybrid_validate(self, cfg)

    def setup(self, ctx: RankContext):
        yield from hybrid_setup(self, ctx)

    def step(self, ctx: RankContext, index: int):
        st = ctx.state
        geom: HybridGeometry = st["geom"]
        box = geom.box
        data = ctx.data
        s1 = st["s1"]
        u_dev, unew_dev = st["u"], st["unew"]
        coeffs = data.coeffs
        h2d_bytes, d2h_bytes = geom.h2d_bytes, geom.d2h_bytes

        # 1) Inner exchange with the GPU (bulk: blocking pageable copies).
        #    D2H the block's outer layer for the CPU walls...
        for dim, pts in geom.out_split:
            yield ctx.launch_cost(1)
            ev = ctx.device_copy_kernel(s1, pts * 8, dim)
            yield ev
        yield ctx.pcie_sync(d2h_bytes)
        yield ctx.memcpy(d2h_bytes, 0.7, phase="stage")
        if data.functional:
            for _, slab in geom.out_slabs:
                copy_box_dev_to_host(u_dev.data, data.u, box, slab)
        #    ...and H2D the adjacent CPU layer as the block's halo.
        yield ctx.memcpy(h2d_bytes, 0.7, phase="stage")
        yield ctx.pcie_sync(h2d_bytes)
        for dim, pts in geom.in_split:
            yield ctx.launch_cost(1)
            ev = ctx.device_copy_kernel(s1, pts * 8, dim)
            yield ev
        if data.functional:
            for _, slab in geom.in_slabs:
                copy_box_host_to_dev(data.u, u_dev.data, box, slab)

        # 2) Outer exchange with other tasks (bulk-synchronous MPI).
        yield from bulk_exchange(ctx)

        # 3) GPU computes the block while the CPUs compute the walls.
        def block_action():
            if u_dev.functional:
                nx, ny, nz = box.block_shape
                apply_stencil_block(u_dev.data, coeffs, unew_dev.data,
                                    (0, 0, 0), (nx, ny, nz))

        yield ctx.launch_cost(1)
        kev = ctx.stencil_kernel(
            s1, box.gpu_points, shape=box.block_shape, action=block_action
        )
        yield ctx.compute(box.cpu_points, efficiency=WALL_COMPUTE_EFFICIENCY)
        if data.functional:
            for wall in geom.walls:
                data.apply_block(wall.lo, wall.hi)
        if not kev.processed:
            yield kev

        # 4) New state becomes current: flip on the device, copy the walls.
        st["u"], st["unew"] = st["unew"], st["u"]
        yield ctx.copy_state_cost(box.cpu_points)
        if data.functional:
            for wall in geom.walls:
                data.copy_region(wall.lo, wall.hi)

    def drain(self, ctx: RankContext):
        yield from hybrid_drain(self, ctx)
