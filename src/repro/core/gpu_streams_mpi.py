"""§IV-G: GPU with MPI overlap using CUDA streams."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.base import Implementation
from repro.core.context import RankContext
from repro.core.gpu_common import box_points
from repro.decomp.halo import pack_face, unpack_face
from repro.stencil.kernels import apply_stencil_block, interior

__all__ = ["GpuStreamsMPI"]


def _forward_rims(
    shape: Tuple[int, int, int],
    host_recv: Dict[Tuple[int, int], np.ndarray],
    d: int,
    host_send: Dict[Tuple[int, int], np.ndarray],
) -> None:
    """Copy freshly received dim-``d`` halo rims into later dims' send buffers.

    The face buffers D2H'd from the device carry stale rim entries (halo
    positions of the other dimensions). The serialized exchange needs the
    dim-``d`` corner data inside the dim-``e > d`` sends, so after the
    dim-``d`` receives land, their boundary lines are copied into the rim
    rows of the pending send planes — the host-side equivalent of §IV-B's
    "x corners sent to y neighbors, and x and y to z".
    """
    for e in range(d + 1, 3):
        axes_e = [a for a in range(3) if a != e]
        d_pos = axes_e.index(d)
        axes_d = [a for a in range(3) if a != d]
        e_pos = axes_d.index(e)
        for side_e in (-1, 1):
            plane_e = host_send.get((e, side_e))
            if plane_e is None:
                continue
            eb = 1 if side_e == -1 else shape[e]  # boundary index in halo coords
            for side_d in (-1, 1):
                recv_plane = host_recv.get((d, side_d))
                if recv_plane is None:
                    continue
                line = np.take(recv_plane, eb, axis=e_pos)
                d_idx = 0 if side_d == -1 else shape[d] + 1
                if d_pos == 0:
                    plane_e[d_idx, :] = line
                else:
                    plane_e[:, d_idx] = line


class GpuStreamsMPI(Implementation):
    """Interior kernel on one stream; halos, faces and copies on another.

    Per step (paper §IV-G): the CPU launches the interior kernel to stream
    1, performs the MPI communication using the boundary buffers copied back
    at the end of the *previous* step, then issues to stream 2: H2D halo
    copies, halo-unpack kernels, the boundary-face kernels (which also fill
    the outgoing buffers), and D2H copies of the new boundary buffers. The
    streams are synchronized at the end of the step.

    The interior kernel thus overlaps MPI communication and PCIe copies —
    but not the boundary-face kernels, because a full-occupancy kernel owns
    every SM (see :class:`repro.machines.spec.GpuSpec.concurrent_kernels`).
    """

    key = "gpu_streams"
    title = "GPU + MPI overlap via streams"
    section = "IV-G"
    fortran_loc = 645  # "almost triples", upper end (more code than IV-F)
    uses_mpi = True
    uses_gpu = True

    def setup(self, ctx: RankContext):
        gpu = ctx.gpu
        st = ctx.state
        st["s1"] = gpu.stream("interior")
        st["s2"] = gpu.stream("boundary")
        shape = [s + 2 for s in ctx.sub.shape]
        # NIC-registered under GPUDirect: halo traffic DMAs device memory
        # directly and the stream-2 staging copies below are skipped.
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
            yield ctx.h2d(st["s1"], st["u"].nbytes)
            # Prime the pipeline: the first step's MPI needs boundary buffers.
            for dim in range(3):
                for side in (-1, 1):
                    st["host_send"][(dim, side)] = pack_face(st["u"].data, dim, side)
        yield ctx.gpu.synchronize()

    def step(self, ctx: RankContext, index: int):
        st = ctx.state
        s1, s2 = st["s1"], st["s2"]
        comm = ctx.comm
        data = ctx.data
        coeffs = data.coeffs
        u_dev, unew_dev = st["u"], st["unew"]
        host_send, host_recv = st["host_send"], st["host_recv"]

        # Interior kernel to stream 1.
        core_lo, core_hi = data.core_box()

        def interior_action():
            if u_dev.functional:
                apply_stencil_block(u_dev.data, coeffs, unew_dev.data,
                                    core_lo, core_hi)

        yield ctx.launch_cost(1)
        ctx.stencil_kernel(s1, data.core_points(), shape=ctx.sub.shape,
                           action=interior_action)

        # MPI communication (serialized dims, buffers from the previous step).
        for dim in range(3):
            recv_plan, send_plan = ctx.halo_plan(dim)
            recvs = yield from comm.irecv_all(recv_plan)
            sends = yield from comm.isend_all(
                send_plan, (host_send.get((dim, -1)), host_send.get((dim, 1)))
            )
            payloads = yield from comm.waitall(recvs + sends)
            host_recv[(dim, -1)], host_recv[(dim, 1)] = payloads[:2]
            if data.functional:
                _forward_rims(ctx.sub.shape, host_recv, dim, host_send)

        # Stream 2: H2D halos, unpack, face kernels, pack, D2H.
        yield ctx.launch_cost(6)
        for dim in range(3):
            nbytes = ctx.face_bytes(dim)
            if not ctx.gpudirect:
                # Halo staging H2D; under GPUDirect the receives already
                # landed in device memory.
                ctx.h2d(s2, 2 * nbytes)

            def unpack_action(dim=dim):
                if u_dev.functional:
                    for side in (-1, 1):
                        unpack_face(u_dev.data, dim, side, host_recv[(dim, side)])

            ctx.device_copy_kernel(s2, 2 * nbytes, dim, unpack_action)

        slabs = data.boundary_slabs()
        yield ctx.launch_cost(6)
        for dim in range(3):
            nbytes = ctx.face_bytes(dim)
            pair = slabs[2 * dim : 2 * dim + 2]
            pts = sum(box_points(b) for b in pair)

            def face_action(pair=pair):
                if u_dev.functional:
                    for lo, hi in pair:
                        apply_stencil_block(u_dev.data, coeffs, unew_dev.data,
                                            lo, hi)

            ctx.face_kernel(s2, pts, dim, face_action)

            def pack_action(dim=dim):
                if u_dev.functional:
                    for side in (-1, 1):
                        host_send[(dim, side)] = pack_face(unew_dev.data, dim, side)

            ctx.device_copy_kernel(s2, 2 * nbytes, dim, pack_action)
            if not ctx.gpudirect:
                # Outgoing-buffer staging D2H; under GPUDirect the next
                # step's sends read the packed device buffers in place.
                ctx.d2h(s2, 2 * nbytes)

        # End of step: synchronize the two streams; flip the state arrays.
        yield ctx.gpu.synchronize([s1, s2])
        st["u"], st["unew"] = st["unew"], st["u"]

    def drain(self, ctx: RankContext):
        if ctx.cfg.functional:
            st = ctx.state
            yield ctx.gpu.synchronize()
            yield ctx.d2h(st["s1"], st["u"].nbytes)
            interior(ctx.data.u)[...] = interior(st["u"].data)
