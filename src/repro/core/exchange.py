"""The serialized halo-exchange protocol shared by the MPI implementations.

Implements §IV-B's sequence, per dimension: the master thread issues
nonblocking receives; all threads pack the two send buffers; the master
sends and completes the receives; all threads unpack into the halos.
Dimensions run strictly in x, y, z order so corner data propagates through
faces (x corners travel via y neighbors, x and y via z).

:func:`post_dim` / :func:`complete_dim` expose the two halves so the
nonblocking-overlap implementation (§IV-C) can compute between them;
:func:`bulk_exchange` runs them back-to-back (§IV-B, §IV-H).
"""

from __future__ import annotations

from typing import List

from repro.core.context import FACE_PACK_STRIDE_PENALTY, RankContext
from repro.simmpi.api import Request

__all__ = ["post_dim", "complete_dim", "bulk_exchange"]


def post_dim(ctx: RankContext, dim: int, pack_threads: int | None = None):
    """Generator: irecvs, pack, isends for one dimension.

    Returns ``(recvs, sends)``, each a Request list in side order (-1, +1).
    ``pack_threads`` overrides the thread count doing the packing (the
    OpenMP-overlap implementation packs with the master thread only).
    """
    comm = ctx.comm
    recv_plan, send_plan = ctx.halo_plan(dim)
    # Master thread first issues nonblocking receive calls (§IV-B).
    recvs = yield from comm.irecv_all(recv_plan)
    # All threads copy into send buffers.
    yield ctx.memcpy(
        2 * ctx.face_bytes(dim), FACE_PACK_STRIDE_PENALTY[dim], phase="pack",
        threads=pack_threads,
    )
    data = ctx.data
    payloads = (data.pack(dim, -1), data.pack(dim, 1)) if data.functional else None
    sends = yield from comm.isend_all(send_plan, payloads)
    return recvs, sends


def complete_dim(
    ctx: RankContext,
    dim: int,
    recvs: List[Request],
    sends: List[Request],
    unpack_threads: int | None = None,
):
    """Generator: complete one dimension's receives and unpack the halos."""
    comm = ctx.comm
    payloads = yield from comm.waitall(recvs)
    yield ctx.memcpy(
        2 * ctx.face_bytes(dim), FACE_PACK_STRIDE_PENALTY[dim], phase="unpack",
        threads=unpack_threads,
    )
    if ctx.data.functional:
        for side, payload in zip((-1, 1), payloads):
            ctx.data.unpack(dim, side, payload)
    yield from comm.waitall(sends)


def bulk_exchange(ctx: RankContext, threads: int | None = None):
    """Generator: the full bulk-synchronous serialized exchange (§IV-B)."""
    for dim in range(3):
        recvs, sends = yield from post_dim(ctx, dim, pack_threads=threads)
        yield from complete_dim(ctx, dim, recvs, sends, unpack_threads=threads)
