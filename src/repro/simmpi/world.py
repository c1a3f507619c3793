"""Full multi-rank MPI backend.

Every rank runs as a DES process; sends and receives match on
``(src, dst, tag)`` in FIFO order like real MPI. See the package docstring
for the progress model.

Transfer stages drive the flat event core (docs/MODEL.md §12) through
bare ``(fn, arg)`` callback slots — latency, wire and completion hops are
bucket appends, not Event/Process allocations — and the shared-NIC
wakeup reschedules underneath :class:`~repro.des.SharedBandwidth` are
tombstoned cancellable slots rather than fire-and-ignore generations.
Same-time completions across ranks land in one drain cohort in exactly
the order they were scheduled, which is what keeps full-backend runs
bit-identical to the seed engine's ``(time, counter)`` order.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.des import Environment, Event, SharedBandwidth
from repro.machines.spec import InterconnectSpec, NodeSpec
from repro.simmpi.api import Plan, RankComm, Request
from repro.simmpi.message import (
    _SendPrice,
    perturbed_background,
    perturbed_remainder,
    pricing,
)

__all__ = ["World"]


class _Xfer:
    """One message in flight."""

    __slots__ = ("src", "dst", "tag", "nbytes", "payload", "price",
                 "both_posted", "bg_done", "fg_done")

    def __init__(self, src, dst, tag, nbytes, payload, price: _SendPrice, env):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.price = price
        self.both_posted = False
        self.bg_done: Event = env.event()
        #: the in-wait remainder's completion, created when it starts
        self.fg_done: Optional[Event] = None


class World:
    """A set of simulated MPI ranks sharing one machine's network."""

    def __init__(
        self,
        env: Environment,
        nranks: int,
        interconnect: InterconnectSpec,
        node: NodeSpec,
        tasks_per_node: int = 1,
    ):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        if tasks_per_node < 1:
            raise ValueError("tasks_per_node must be >= 1")
        self.env = env
        self.nranks = nranks
        self.ic = interconnect
        self.node = node
        self.tasks_per_node = tasks_per_node
        #: optional repro.obs tracer: in-flight message intervals on the
        #: "mpi" lane (group = sender rank) plus isend/irecv marks for the
        #: invariant checker. None (the default) costs one check per send.
        self.tracer = None
        #: optional repro.perturb injector: per-message latency/bandwidth
        #: jitter, progress stalls, drop/retransmit faults (off-node only).
        self.perturb = None
        nnodes = math.ceil(nranks / tasks_per_node)
        # One fair-share link per NIC; multi-rail nodes (EFA-class) stripe
        # ranks across their rails round-robin. With one NIC per node the
        # names and indexing reduce to the historical f"nic{node}" exactly.
        self._npn = max(1, interconnect.nics_per_node)
        self.nics = [
            SharedBandwidth(
                env,
                interconnect.bandwidth_bps,
                name=f"nic{n}" if self._npn == 1 else f"nic{n}:{j}",
            )
            for n in range(nnodes)
            for j in range(self._npn)
        ]
        #: Send prices shared with every communicator on this interconnect.
        #: An off-node send is priced at a NIC share of one; its wire time
        #: comes from the NIC's fair share instead (the price's ``rate`` is
        #: unused here).
        self._pricing = pricing(interconnect, node)
        self._posted_sends: Dict[Tuple[int, int, int], deque] = {}
        self._posted_recvs: Dict[Tuple[int, int, int], deque] = {}
        #: barrier/allreduce name -> [ranks entered, release event, max value].
        self._syncs: Dict[str, list] = {}

    # -- topology -------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Node hosting ``rank`` (contiguous placement)."""
        return rank // self.tasks_per_node

    def comm(self, rank: int) -> "WorldRankComm":
        """Per-rank communicator handle."""
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range")
        return WorldRankComm(self, rank)

    def _price(self, src: int, dst: int, nbytes: int) -> _SendPrice:
        """Price an ``nbytes`` send: on-node when both ranks share a node."""
        local = self.node_of(src) == self.node_of(dst)
        return self._pricing.price(None if local else 1.0, nbytes)

    # -- wire -----------------------------------------------------------------
    def _nic_transfer(self, src: int, nbytes: float) -> Event:
        """Move ``nbytes`` through the sender's NIC."""
        nic = self.node_of(src) * self._npn + (src % self._npn)
        return self.nics[nic].transfer(nbytes)

    def _start_background(self, xfer: _Xfer) -> None:
        """Launch the background part of a transfer (latency + RDMA share).

        Callback-chained timeouts (a latency slot, then a wire completion
        callback) replace the per-transfer ``bg()`` generator process of the
        seed engine.
        """
        p = xfer.price
        lat, wire_mult = p.lat, 1.0
        perturb = self.perturb
        if perturb is not None and not p.local:
            lat, wire_mult = perturbed_background(p, perturb, xfer.src, self.env.now)

        bg_done = xfer.bg_done
        tracer = self.tracer
        if tracer is not None:
            start = self.env.now
            lane = self._pricing.lane(p)
            bg_done.callbacks.append(
                lambda _ev, s=start, x=xfer, lane=lane: tracer.record(
                    lane, f"bg d{x.dst} t{x.tag}", s, self.env.now,
                    group=x.src, cat="comm",
                    args={"src": x.src, "dst": x.dst, "tag": x.tag,
                          "nbytes": x.nbytes, "stage": "background"},
                )
            )
        if p.frac > 0:
            def after_latency(_arg, *, xfer=xfer, mult=wire_mult):
                if p.local:
                    # Slot-scheduled memcpy: no mover process per on-node copy.
                    wire = self.env.event()
                    self.env.schedule(p.bg_wire, wire.succeed)
                else:
                    wire = self._nic_transfer(xfer.src, p.frac * xfer.nbytes * mult)
                wire.callbacks.append(lambda _ev: bg_done.succeed())

            self.env.schedule(lat, after_latency)
        else:
            self.env.schedule(lat, bg_done.succeed)

    def _ensure_foreground(self, xfer: _Xfer) -> Event:
        """Start (once) the in-wait remainder of an off-node transfer."""
        if xfer.fg_done is None:
            xfer.fg_done = self.env.event()
            remainder = perturbed_remainder(
                xfer.price, xfer.nbytes, self.perturb, xfer.src
            )
            done = xfer.fg_done
            tracer = self.tracer
            if tracer is not None and remainder > 0:
                start = self.env.now
                done.callbacks.append(
                    lambda _ev, s=start, x=xfer: tracer.record(
                        "mpi", f"fg d{x.dst} t{x.tag}", s, self.env.now,
                        group=x.src, cat="comm",
                        args={"src": x.src, "dst": x.dst, "tag": x.tag,
                              "nbytes": x.nbytes, "stage": "foreground"},
                    )
                )
            if remainder > 0:
                wire = self._nic_transfer(xfer.src, remainder)
                wire.callbacks.append(lambda _ev: done.succeed())
            else:
                done.succeed()
        return xfer.fg_done

    # -- matching ---------------------------------------------------------------
    def _post_send(self, xfer: _Xfer) -> None:
        key = (xfer.src, xfer.dst, xfer.tag)
        recvs = self._posted_recvs.get(key)
        if recvs:
            req = recvs.popleft()
            req._xfer = xfer
            xfer.both_posted = True
            req.payload = xfer.payload
            match_ev, req._match_event = req._match_event, None
            if match_ev is not None:
                match_ev.succeed()
        else:
            self._posted_sends.setdefault(key, deque()).append(xfer)
        if xfer.price.unpaired or xfer.both_posted:
            self._start_background(xfer)

    def _post_recv(self, req: Request) -> None:
        key = (req.peer, req.rank, req.tag)
        sends = self._posted_sends.get(key)
        if sends:
            xfer = sends.popleft()
            req._xfer = xfer
            req.payload = xfer.payload
            if not xfer.price.unpaired:
                xfer.both_posted = True
                self._start_background(xfer)
        else:
            ev = self.env.event()
            req._match_event = ev
            self._posted_recvs.setdefault(key, deque()).append(req)


class WorldRankComm(RankComm):
    """One rank's view of a :class:`World`."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank
        self.nranks = world.nranks

    @property
    def env(self) -> Environment:
        """The world's DES environment."""
        return self.world.env

    def _overhead(self):
        return self.env.timeout(self.world.ic.per_message_cpu_us * 1e-6)

    # -- point to point -----------------------------------------------------
    # Message by message: each post pays its own overhead Timeout, and each
    # wait yields on its match, background, foreground and copy in turn.
    def isend_all(self, plan: Plan, payloads: Optional[Sequence[Any]] = None):
        """Post one nonblocking send per plan entry (generator; returns the
        Requests)."""
        w = self.world
        rank = self.rank
        reqs = []
        for i, (dst, tag, nbytes) in enumerate(plan):
            yield self._overhead()
            payload = None if payloads is None else payloads[i]
            xfer = _Xfer(rank, dst, tag, nbytes, payload,
                         w._price(rank, dst, nbytes), self.env)
            self.messages_sent += 1
            self.bytes_sent += nbytes
            if w.tracer is not None:
                w.tracer.mark(
                    "mpi", "isend", self.env.now, group=rank, cat="comm",
                    args={"src": rank, "dst": dst, "tag": tag, "nbytes": nbytes},
                )
            w._post_send(xfer)
            reqs.append(Request("send", rank, dst, tag, nbytes, payload, _xfer=xfer))
        return reqs

    def irecv_all(self, plan: Plan):
        """Post one nonblocking receive per plan entry (generator; returns
        the Requests)."""
        w = self.world
        rank = self.rank
        reqs = []
        for src, tag, nbytes in plan:
            yield self._overhead()
            req = Request("recv", rank, src, tag, nbytes)
            self.messages_received += 1
            self.bytes_received += nbytes
            if w.tracer is not None:
                w.tracer.mark(
                    "mpi", "irecv", self.env.now, group=rank, cat="comm",
                    args={"src": src, "dst": rank, "tag": tag, "nbytes": nbytes},
                )
            w._post_recv(req)
            reqs.append(req)
        return reqs

    def waitall(self, requests: Iterable[Request]):
        """Complete each request in turn; returns the receives' payloads
        (``None`` per send)."""
        w = self.world
        out = []
        for request in requests:
            if request.completed:
                out.append(request.payload)
                continue
            recv = request.kind == "recv"
            if recv and request._xfer is None:
                yield request._match_event
            xfer: _Xfer = request._xfer
            p = xfer.price
            if not recv and p.buffered:
                # Eager sends complete as soon as the data is buffered; only
                # the receiver is exposed to the wire.
                request.completed = True
                out.append(None)
                continue
            if not xfer.bg_done.processed:
                yield xfer.bg_done
            if not p.local:
                # Finish the wire work MPI could not progress in the background.
                yield w._ensure_foreground(xfer)
            if recv:
                if p.copy_s is not None:
                    # Copy out of the receive/unexpected buffer.
                    yield self.env.timeout(p.copy_s)
                request.payload = xfer.payload
            request.completed = True
            out.append(request.payload if recv else None)
        return out

    # -- collectives ---------------------------------------------------------
    def barrier(self):
        """Dissemination barrier: completes after the last rank arrives."""
        yield from self._sync("barrier", 0.0, 1)

    def allreduce_max(self, value: float):
        """Max-allreduce of a scalar across all ranks."""
        return (yield from self._sync("allreduce", value, 2))

    def _sync(self, name: str, value: float, depth: int):
        """Release every rank once the last enters ``name``, then pay
        ``depth`` log-depth rounds of latency; returns the largest value."""
        t_enter = self.env.now
        yield self._overhead()
        w = self.world
        state = w._syncs.get(name)
        if state is None:
            state = w._syncs[name] = [0, self.env.event(), None]
        ev = state[1]
        state[0] += 1
        state[2] = value if state[2] is None else max(state[2], value)
        if state[0] == w.nranks:
            w._syncs[name] = [0, self.env.event(), None]
            ev.succeed(state[2])
        result = yield ev
        rounds = max(1, math.ceil(math.log2(max(2, self.nranks))))
        yield self.env.timeout(depth * rounds * w.ic.latency_s)
        if w.tracer is not None:
            w.tracer.record(
                "mpi-sync", name, t_enter, self.env.now, group=self.rank, cat="sync"
            )
        return result
