"""§IV-F: GPU with bulk-synchronous MPI."""

from __future__ import annotations

import numpy as np

from repro.core.base import Implementation
from repro.core.context import RankContext
from repro.core.gpu_common import box_points
from repro.decomp.halo import pack_face, unpack_face
from repro.stencil.kernels import apply_stencil_block, interior

__all__ = ["GpuBulkMPI"]


class GpuBulkMPI(Implementation):
    """Multi-GPU: CPUs do the MPI, everything serialized.

    Per dimension: a device kernel packs the two face buffers, a blocking
    (pageable) D2H moves them to the host, the CPUs exchange them over MPI,
    a blocking H2D pushes the received halos back, and a device kernel
    unpacks them. Then separate kernels compute each pair of boundary faces
    and the interior (paper §IV-F). Nothing overlaps anything — which,
    combined with the miserable rate of the one-point-thick face kernels,
    is why §V-E measures this at 24 GF where the resident kernel gets 86.
    """

    key = "gpu_bulk"
    title = "GPU + bulk-synchronous MPI"
    section = "IV-F"
    fortran_loc = 610  # "adding MPI ... almost triples" the 215-line baseline
    uses_mpi = True
    uses_gpu = True

    def setup(self, ctx: RankContext):
        gpu = ctx.gpu
        st = ctx.state
        st["stream"] = gpu.stream("main")
        shape = [s + 2 for s in ctx.sub.shape]
        # On GPU-aware interconnects the state arrays are NIC-registered:
        # the packed face buffers live in device memory and are DMA'd by
        # the NIC, so the blocking host-staging copies below disappear.
        st["u"] = gpu.memory.allocate(
            f"u{ctx.sub.rank}", shape, ctx.cfg.functional,
            registered=ctx.gpudirect,
        )
        st["unew"] = gpu.memory.allocate(
            f"unew{ctx.sub.rank}", shape, ctx.cfg.functional,
            registered=ctx.gpudirect,
        )
        st["host_send"] = {}
        st["host_recv"] = {}
        if ctx.cfg.functional:
            interior(st["u"].data)[...] = interior(ctx.data.u)
            yield ctx.h2d(st["stream"], st["u"].nbytes)

    def step(self, ctx: RankContext, index: int):
        st = ctx.state
        stream = st["stream"]
        comm = ctx.comm
        data = ctx.data
        u_dev, unew_dev = st["u"], st["unew"]

        for dim in range(3):
            nbytes = ctx.face_bytes(dim)
            recv_plan, send_plan = ctx.halo_plan(dim)
            # Receives first, as in the CPU bulk implementation.
            recvs = yield from comm.irecv_all(recv_plan)
            # Device pack kernel -> blocking D2H of both face buffers.
            def pack_action(dim=dim):
                if u_dev.functional:
                    for side in (-1, 1):
                        st["host_send"][(dim, side)] = pack_face(u_dev.data, dim, side)

            yield ctx.launch_cost(1)
            pack_ev = ctx.device_copy_kernel(stream, 2 * nbytes, dim, pack_action)
            yield pack_ev
            if not ctx.gpudirect:
                # Blocking pageable D2H of the packed faces (§IV-F). A
                # GPU-aware interconnect sends the device buffers directly.
                yield ctx.pcie_sync(2 * nbytes)
            # MPI exchange of this dimension: sends, then every receive and
            # send completed in that order.
            host_send = st["host_send"]
            sends = yield from comm.isend_all(
                send_plan, (host_send.get((dim, -1)), host_send.get((dim, 1)))
            )
            payloads = yield from comm.waitall(recvs + sends)
            st["host_recv"][(dim, -1)], st["host_recv"][(dim, 1)] = payloads[:2]
            # Blocking H2D of the halo buffers -> device unpack kernel
            # (skipped under GPUDirect: the NIC delivered into device memory).
            if not ctx.gpudirect:
                yield ctx.pcie_sync(2 * nbytes)

            def unpack_action(dim=dim):
                if u_dev.functional:
                    for side in (-1, 1):
                        unpack_face(u_dev.data, dim, side, st["host_recv"][(dim, side)])

            yield ctx.launch_cost(1)
            unpack_ev = ctx.device_copy_kernel(stream, 2 * nbytes, dim, unpack_action)
            yield unpack_ev

        # Face kernels (one per pair of boundary faces per dimension).
        slabs = data.boundary_slabs()
        coeffs = data.coeffs
        for dim in range(3):
            pair = slabs[2 * dim : 2 * dim + 2]
            pts = sum(box_points(b) for b in pair)

            def face_action(pair=pair):
                if u_dev.functional:
                    for lo, hi in pair:
                        apply_stencil_block(u_dev.data, coeffs, unew_dev.data,
                                            lo, hi)

            yield ctx.launch_cost(1)
            ctx.face_kernel(stream, pts, dim, face_action)

        # Interior kernel (the simplified resident kernel, §IV-F).
        core_lo, core_hi = data.core_box()

        def interior_action():
            if u_dev.functional:
                apply_stencil_block(u_dev.data, coeffs, unew_dev.data,
                                    core_lo, core_hi)

        yield ctx.launch_cost(1)
        ctx.stencil_kernel(stream, data.core_points(), shape=ctx.sub.shape,
                           action=interior_action)
        yield ctx.gpu.synchronize([stream])
        st["u"], st["unew"] = st["unew"], st["u"]

    def drain(self, ctx: RankContext):
        if ctx.cfg.functional:
            st = ctx.state
            yield ctx.gpu.synchronize()
            yield ctx.d2h(st["stream"], st["u"].nbytes)
            interior(ctx.data.u)[...] = interior(st["u"].data)
