"""One message model: a lone exchange ends at the same float time on both
MPI backends.

Two ranks swap one message under one tag, on one node or on two, for every
catalog machine, progress model, protocol regime and post order. The full
backend (:class:`~repro.simmpi.World`) runs both ranks; the mirror backend
(:class:`~repro.simmpi.MirrorComm`) runs the representative against its own
image, with the tag's placement and a NIC share of one given by hand. Both
price the send from one table (:mod:`repro.simmpi.message`), so their
completion times must agree to the bit.
"""

import dataclasses

import pytest

from repro.des import Environment
from repro.machines import (
    A100_SXM, EFA_CLOUD, HOPPER, JAGUARPF, LENS, MILAN_SS11, YONA, ProgressModel,
)
from repro.simmpi import MirrorComm, MirrorProfile, World

TAG = 3
CATALOG = (JAGUARPF, HOPPER, LENS, YONA, A100_SXM, MILAN_SS11, EFA_CLOUD)


def _sizes(ic):
    return (64, ic.eager_threshold_bytes + 1, 1_000_000)


def _exchange(comm, peer, nbytes, recv_first):
    if recv_first:
        rreq = yield from comm.irecv(peer, TAG, nbytes)
        sreq = yield from comm.isend(peer, TAG, nbytes)
    else:
        sreq = yield from comm.isend(peer, TAG, nbytes)
        rreq = yield from comm.irecv(peer, TAG, nbytes)
    yield from comm.wait(rreq)
    yield from comm.wait(sreq)
    return comm.env.now


def _world_times(machine, ic, tpn, nbytes, recv_first):
    env = Environment()
    world = World(env, 2, ic, machine.node, tpn)
    procs = [
        env.process(_exchange(world.comm(r), 1 - r, nbytes, recv_first))
        for r in range(2)
    ]
    env.run()
    return [p.value for p in procs]


def _mirror_time(machine, ic, tpn, nbytes, recv_first):
    env = Environment()
    profile = MirrorProfile(ic, machine.node, 2, tpn, {TAG: tpn == 1}, {TAG: 1.0}, 0)
    proc = env.process(_exchange(MirrorComm(env, profile), 1, nbytes, recv_first))
    env.run()
    return proc.value


@pytest.mark.parametrize("recv_first", [True, False], ids=["recv-first", "send-first"])
@pytest.mark.parametrize("size", [0, 1, 2], ids=["64B", "eager+1", "1MB"])
@pytest.mark.parametrize("tpn", [1, 2], ids=["off-node", "on-node"])
@pytest.mark.parametrize("progress", list(ProgressModel), ids=lambda p: p.value)
@pytest.mark.parametrize("machine", CATALOG, ids=lambda m: m.name)
def test_lone_exchange_ends_at_the_same_time(machine, progress, tpn, size, recv_first):
    ic = dataclasses.replace(machine.interconnect, progress=progress)
    nbytes = _sizes(ic)[size]
    want = _mirror_time(machine, ic, tpn, nbytes, recv_first)
    assert want > 0.0
    assert _world_times(machine, ic, tpn, nbytes, recv_first) == [want, want]
