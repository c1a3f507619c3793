"""Extension: bulk-synchronous MPI with a direct 26-neighbor exchange.

Not one of the paper's nine implementations. The paper adopts the
"well-established strategy [that] reduces the number of neighbor exchanges
from 26 to 6" (§IV-B) without measuring the alternative; this
implementation *is* the alternative — every face, edge and corner in its
own message, all posted at once, no dimension serialization — so the
``protocols`` experiment can quantify the trade-off the paper took for
granted: 26 latencies and per-message overheads against three dependent
exchange phases.
"""

from __future__ import annotations

from repro.core.base import Implementation
from repro.core.context import RankContext
from repro.decomp.halo26 import (
    OFFSETS26,
    offset_tag,
    pack_region,
    region_bytes,
    total_exchange_bytes,
    unpack_region,
)

__all__ = ["BulkDirectMPI"]


class BulkDirectMPI(Implementation):
    """Bulk-synchronous advection with 26 direct neighbor messages."""

    key = "bulk_direct"
    title = "Bulk-synchronous MPI, direct 26-neighbor exchange"
    section = "ext"  # extension; no paper section
    fortran_loc = 0  # not measured by the paper
    uses_mpi = True
    uses_gpu = False

    def setup(self, ctx: RankContext):
        """Build the run's 26-message plans and packed-byte total once."""
        decomp = ctx.decomp
        shape = ctx.sub.shape
        coords = decomp.coords_of(ctx.sub.rank)
        recv_plan, send_plan = [], []
        for d in OFFSETS26:
            peer = decomp.rank_of(tuple(c + dd for c, dd in zip(coords, d)))
            nbytes = region_bytes(shape, d)
            # My halo at d arrives from the d-neighbor, which sends toward -d.
            recv_plan.append((peer, offset_tag(tuple(-x for x in d)), nbytes))
            send_plan.append((peer, offset_tag(d), nbytes))
        st = ctx.state
        st["recv_plan"] = recv_plan
        st["send_plan"] = send_plan
        st["exchange_bytes"] = total_exchange_bytes(shape)
        return
        yield  # pragma: no cover - a generator hook that takes no time

    def step(self, ctx: RankContext, index: int):
        comm = ctx.comm
        data = ctx.data
        st = ctx.state
        xbytes = st["exchange_bytes"]

        # Post every receive up front.
        recvs = yield from comm.irecv_all(st["recv_plan"])
        # Pack everything (one threaded pass over ~the same bytes as the
        # serialized protocol, moderately strided), then send all 26.
        yield ctx.memcpy(xbytes, 0.7, phase="pack")
        payloads = [pack_region(data.u, d) for d in OFFSETS26] if data.functional else None
        sends = yield from comm.isend_all(st["send_plan"], payloads)
        # Complete receives, unpack, complete sends.
        payloads = yield from comm.waitall(recvs)
        yield ctx.memcpy(xbytes, 0.7, phase="unpack")
        if data.functional:
            for d, payload in zip(OFFSETS26, payloads):
                unpack_region(data.u, d, payload)
        yield from comm.waitall(sends)

        # Local computation is identical to the serialized bulk version.
        yield ctx.compute(ctx.sub.points)
        data.apply_all()
        yield ctx.copy_state_cost(ctx.sub.points)
        data.copy_state()
