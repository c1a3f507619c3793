"""Mirror (representative-rank) MPI backend.

Simulates one worst-case rank against symmetric neighbor images: because
every rank of the bulk-synchronous advection step does the same work on a
subdomain of (almost) the same size, the data a rank *receives* under a
given halo tag is timed exactly like the data it *sends* under that tag.
A receive request therefore pairs with the rank's own send of the same tag,
and the per-step time of the representative rank is the ensemble per-step
time. Cross-validation tests assert agreement with the full backend.

The :class:`MirrorProfile` captures what the representative rank needs to
know about the whole machine: which halo directions cross the NIC versus
staying on-node, and how many concurrent transfers share the NIC during
each dimension's exchange phase (contention factor).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.des import Environment, SimulationError
from repro.decomp.partition import Decomposition
from repro.machines.spec import InterconnectSpec, MachineSpec, NodeSpec
from repro.simmpi.api import Plan, RankComm, Request
from repro.simmpi.message import (
    _SendPrice,
    perturbed_background,
    perturbed_remainder,
    pricing,
)

__all__ = ["MirrorProfile", "MirrorComm"]


@dataclass(frozen=True)
class MirrorProfile:
    """Network facts as seen by the representative rank."""

    interconnect: InterconnectSpec
    node: NodeSpec
    nranks: int
    tasks_per_node: int
    #: tag -> True when that halo message crosses the NIC (off-node).
    offnode_by_tag: Dict[int, bool] = field(default_factory=dict)
    #: tag -> concurrent same-node transfers sharing the NIC during that
    #: exchange (>= 1); models NIC contention without simulating peers.
    nic_share_by_tag: Dict[int, float] = field(default_factory=dict)
    representative_rank: int = 0

    @classmethod
    def for_decomposition(
        cls,
        machine: MachineSpec,
        decomp: Decomposition,
        tasks_per_node: int,
    ) -> "MirrorProfile":
        """Build a profile for the comm-heaviest rank of the first node.

        The node-0 scan (:meth:`Decomposition.node0_scan`) is computed once
        per decomposition and placement; each profile gets its own copies
        of the tables.
        """
        tpn = min(tasks_per_node, decomp.ntasks)
        rep, offnode, share = decomp.node0_scan(tpn)
        return cls(
            interconnect=machine.interconnect,
            node=machine.node,
            nranks=decomp.ntasks,
            tasks_per_node=tpn,
            offnode_by_tag=dict(offnode),
            nic_share_by_tag=dict(share),
            representative_rank=rep,
        )

    def is_offnode(self, tag: int) -> bool:
        """Whether messages with ``tag`` cross the NIC."""
        return self.offnode_by_tag.get(tag, self.nranks > self.tasks_per_node)

    def nic_share(self, tag: int) -> float:
        """NIC contention factor for ``tag``."""
        return self.nic_share_by_tag.get(tag, max(1.0, float(self.tasks_per_node)))


class _MirrorXfer:
    __slots__ = ("tag", "nbytes", "price", "recv_posted", "bg_t", "fg_t")

    def __init__(self, tag: int):
        self.tag = tag
        self.nbytes = 0
        #: the send's :class:`_SendPrice`; ``None`` until the send posts.
        self.price: Optional[_SendPrice] = None
        self.recv_posted = False
        #: absolute completion times of the background part and of the
        #: foreground remainder; ``None`` until that part has started.
        self.bg_t: Optional[float] = None
        self.fg_t: Optional[float] = None


class MirrorComm(RankComm):
    """The representative rank's communicator.

    Functional payloads are not supported (there are no real peers); use the
    full backend for functional runs. In mirror mode a receive's payload is
    always ``None`` and implementations must run in shadow-data mode.

    Every completion time is a number by the time anything waits on it
    (one rank, a static NIC share), so the batch calls run in closed form
    and are the only code path: :meth:`isend_all`/:meth:`irecv_all` chain
    the post times ``t = t + overhead`` and start each background part at
    its own post time; :meth:`waitall` walks its requests in order with
    the per-message rules. Each batch then yields one absolute-time
    Timeout, and only if a per-message loop would have yielded at all.
    Perturbation draws and trace records happen in per-message order, at
    the computed times (docs/MODEL.md §4). A send's static facts
    (placement, protocol, latency, background fraction, wire rate) are
    priced once per ``(tag, nbytes)`` from the table the full backend
    shares (:mod:`repro.simmpi.message`).
    """

    def __init__(self, env: Environment, profile: MirrorProfile):
        self.env = env
        self.profile = profile
        self.rank = profile.representative_rank
        self.nranks = profile.nranks
        #: side -> tag -> FIFO of half-posted xfers still awaiting that
        #: side's claim; a paired xfer is popped, so nothing accumulates.
        self._awaiting: Dict[str, Dict[int, deque]] = {"send": {}, "recv": {}}
        #: optional repro.obs tracer: transfer intervals on the "mpi" lane
        #: plus isend/irecv marks (matched per tag by the invariant checker).
        self.tracer = None
        #: optional repro.perturb injector: per-message latency/bandwidth
        #: jitter, progress stalls, drop/retransmit faults (off-node only).
        self.perturb = None
        ic = profile.interconnect
        self._overhead_s = ic.per_message_cpu_us * 1e-6
        #: (tag, nbytes) -> _SendPrice, filled on first use.
        self._prices: Dict[Tuple[int, int], _SendPrice] = {}
        self._pricing = pricing(ic, profile.node)

    # -- helpers --------------------------------------------------------------
    def _price(self, tag: int, nbytes: int) -> _SendPrice:
        """Price a ``(tag, nbytes)`` send and keep it for the run."""
        profile = self.profile
        share = profile.nic_share(tag) if profile.is_offnode(tag) else None
        price = self._prices[tag, nbytes] = self._pricing.price(share, nbytes)
        return price

    def _start_background(self, xfer: _MirrorXfer, now: float) -> None:
        """Start the background part at ``now`` (its side(s) are posted).

        An on-node or eager send starts it as it posts; a rendezvous send
        starts it once both sides are posted.
        """
        p = xfer.price
        perturb = self.perturb
        # The NIC share is static, so the completion time is known now: the
        # latency lands first, then the background wire time. Two separate
        # additions, ``(now + lat) + wire`` and not ``now + (lat + wire)``:
        # that is the model's float order, which the golden oracles pin
        # (docs/MODEL.md §7).
        if perturb is None or p.local:
            bg_t = now + p.lat + p.bg_wire
        else:
            lat, wire_mult = perturbed_background(p, perturb, self.rank, now)
            bg_t = now + lat
            if p.frac > 0:
                bg_t = bg_t + p.frac * xfer.nbytes * wire_mult / p.rate
        xfer.bg_t = bg_t
        tracer = self.tracer
        if tracer is not None:
            tracer.record(
                self._pricing.lane(p), f"bg t{xfer.tag}", now, bg_t,
                group=self.rank, cat="comm",
                args={"tag": xfer.tag, "nbytes": xfer.nbytes, "stage": "background"},
            )

    def _foreground_end(self, xfer: _MirrorXfer, now: float) -> float:
        """Completion time of an off-node transfer's host-driven remainder,
        fixed at first call.

        The remainder starts when a waiter first reaches it (at ``now``,
        after the background part), so its end is ``now + remainder / rate``.
        """
        fg_t = xfer.fg_t
        if fg_t is not None:
            return fg_t
        p = xfer.price
        if self.perturb is None:
            wire = p.fg_wire
        else:
            remainder = perturbed_remainder(p, xfer.nbytes, self.perturb, self.rank)
            wire = remainder / p.rate if remainder > 0 else None
        if wire is None:
            fg_t = now
        else:
            fg_t = now + wire
            if self.tracer is not None:
                self.tracer.record(
                    "mpi", f"fg t{xfer.tag}", now, fg_t, group=self.rank, cat="comm",
                    args={"tag": xfer.tag, "nbytes": xfer.nbytes, "stage": "foreground"},
                )
        xfer.fg_t = fg_t
        return fg_t

    # -- API ---------------------------------------------------------------
    def isend_all(self, plan: Plan, payloads: Optional[Sequence[Any]] = None):
        """Post one send per plan entry, in order, with one engine wait.

        Entry ``i`` is posted at ``now + overhead`` chained ``i + 1`` times
        (``t = t + overhead``, the float the per-message Timeout computed);
        its claim, statistics, trace mark and background start happen at
        that time. The batch then yields one Timeout at the last post time.
        """
        if payloads is not None and any(p is not None for p in payloads):
            raise ValueError("mirror backend cannot carry functional payloads")
        reqs, t = self._post(plan, "send")
        if reqs:
            yield self.env.timeout_at(t)
        return reqs

    def irecv_all(self, plan: Plan):
        """Post one receive per plan entry (see :meth:`isend_all`)."""
        reqs, t = self._post(plan, "recv")
        if reqs:
            yield self.env.timeout_at(t)
        return reqs

    def _post(self, plan: Plan, kind: str) -> Tuple[List[Request], float]:
        """Post ``plan``'s messages of ``kind`` at chained times.

        Pairing is FIFO per tag: a post claims the oldest transfer the
        other side opened and this side has not claimed yet, else opens a
        new one, queued for the other side's claim. Returns the Requests
        and the last post time (the caller's one wait).
        """
        t = self.env.now
        overhead = self._overhead_s
        tracer = self.tracer
        # Unperturbed, untraced: a background part starts with no draw and
        # no record, so its end is computed right here.
        quiet = tracer is None and self.perturb is None
        rank = self.rank
        send = kind == "send"
        mine = self._awaiting[kind]
        theirs = self._awaiting["recv" if send else "send"]
        prices = self._prices
        reqs = []
        total = 0
        for peer, tag, nbytes in plan:
            t = t + overhead
            q = mine.get(tag)
            if q:
                xfer = q.popleft()
            else:
                xfer = _MirrorXfer(tag)
                q = theirs.get(tag)
                if q is None:
                    q = theirs[tag] = deque()
                q.append(xfer)
            total += nbytes
            if tracer is not None:
                tracer.mark(
                    "mpi", "isend" if send else "irecv", t, group=rank,
                    cat="comm", args={"tag": tag, "nbytes": nbytes},
                )
            if send:
                price = prices.get((tag, nbytes)) or self._price(tag, nbytes)
                xfer.price = price
                xfer.nbytes = nbytes
                start = price.unpaired or xfer.recv_posted
            else:
                xfer.recv_posted = True
                # An on-node or eager send started it before its recv posted.
                price = xfer.price
                start = price is not None and xfer.bg_t is None
            if start:
                if quiet:
                    xfer.bg_t = t + price.lat + price.bg_wire
                else:
                    self._start_background(xfer, t)
            reqs.append(Request(kind, rank, peer, tag, nbytes, None, False, xfer))
        if send:
            self.messages_sent += len(reqs)
            self.bytes_sent += total
        else:
            self.messages_received += len(reqs)
            self.bytes_received += total
        return reqs, t

    def waitall(self, requests: Iterable[Request]):
        """Block until every mirrored transfer in ``requests`` completes.

        Walks the requests in order with the per-message rules, keeping
        the clock as a number ``t``: a request moves ``t`` to its
        background end, then to its foreground end (fixed at the first
        waiter's ``t``), then past the receive-side copy of a local or
        eager receive. Every one of those times is known by now, so the
        batch yields one absolute-time Timeout at the final ``t`` — and
        only when a per-message wait would have yielded at all. Returns
        ``None`` per request (there are no payloads).
        """
        t = self.env.now
        quiet = self.tracer is None and self.perturb is None
        advanced = False
        n = 0
        for request in requests:
            n += 1
            if request.completed:
                continue
            xfer: _MirrorXfer = request._xfer
            p = xfer.price
            recv = request.kind == "recv"
            if not recv and p.buffered:
                request.completed = True  # buffered; only the receiver waits
                continue
            bg_t = xfer.bg_t
            if bg_t is None:
                # The representative rank posts both sides itself, so a
                # transfer its other side has not started by the wait can
                # never finish.
                missing = "send" if recv else "recv"
                raise SimulationError(
                    f"mirror rank {self.rank}: wait on the {request.kind} of tag "
                    f"{xfer.tag} before its matching {missing} was posted"
                )
            if bg_t > t:
                t = bg_t
                advanced = True
            if not p.local:
                fg_t = xfer.fg_t
                if fg_t is None:
                    if quiet:
                        fg_t = xfer.fg_t = t if p.fg_wire is None else t + p.fg_wire
                    else:
                        fg_t = self._foreground_end(xfer, t)
                if fg_t > t:
                    t = fg_t
                    advanced = True
            if recv and p.copy_s is not None:
                # Copy out of the receive/unexpected buffer.
                t = t + p.copy_s
                advanced = True
            request.completed = True
        if advanced:
            yield self.env.timeout_at(t)
        return [None] * n

    def barrier(self):
        """Log-depth barrier cost (no peers to actually synchronize)."""
        yield from self._sync("barrier", 1)

    def allreduce_max(self, value: float):
        """Reduction cost; the representative's value is the result."""
        yield from self._sync("allreduce", 2)
        return value

    def _sync(self, name: str, depth: int):
        """Pay ``depth`` log-depth rounds of latency and message overhead."""
        t_enter = self.env.now
        ic = self.profile.interconnect
        rounds = max(1, math.ceil(math.log2(max(2, self.nranks))))
        yield self.env.timeout(
            depth * rounds * (ic.latency_s + ic.per_message_cpu_us * 1e-6)
        )
        if self.tracer is not None:
            self.tracer.record(
                "mpi-sync", name, t_enter, self.env.now, group=self.rank, cat="sync"
            )
