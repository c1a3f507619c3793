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
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from repro.des import Environment, SimulationError
from repro.decomp.partition import Decomposition
from repro.machines.spec import InterconnectSpec, MachineSpec, NodeSpec, ProgressModel
from repro.simmpi.api import RankComm, Request, halo_tag

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

        The node-0 scan (:func:`_node0_scan`) is computed once per task
        grid and placement; each profile gets its own copies of the tables.
        """
        tpn = min(tasks_per_node, decomp.ntasks)
        rep, offnode, share = _node0_scan(decomp.task_grid, decomp.ntasks, tpn)
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


@lru_cache(maxsize=256)
def _node0_scan(task_grid: Tuple[int, int, int], ntasks: int, tpn: int):
    """``(rep, offnode_by_tag, nic_share_by_tag)`` of node 0, as item tuples.

    Scans the ranks of node 0 (placement is contiguous), picks the one
    with the most off-node faces as representative, and counts how many
    node-local transfers contend for the NIC in each dimension's exchange
    phase. A domain equal to the task grid admits exactly that grid (no
    factor may exceed its extent), so the rebuilt decomposition has the
    caller's rank layout.
    """
    decomp = Decomposition(ntasks, task_grid)
    node_ranks = range(tpn)
    off = {r: decomp.offnode_dims(r, tpn) for r in node_ranks}
    rep = max(node_ranks, key=lambda r: sum(sum(d) for d in off[r].values()))
    offnode_by_tag, nic_share_by_tag = [], []
    for dim in range(3):
        # Send messages from this node during the dim exchange phase.
        node_sends = sum(int(b) for r in node_ranks for b in off[r][dim])
        for side in (-1, 1):
            tag = halo_tag(dim, side)
            offnode_by_tag.append((tag, off[rep][dim][0 if side < 0 else 1]))
            nic_share_by_tag.append((tag, max(1.0, float(node_sends))))
    return rep, tuple(offnode_by_tag), tuple(nic_share_by_tag)


class _MirrorXfer:
    __slots__ = ("tag", "nbytes", "send_posted", "recv_posted", "bg_t", "fg_t",
                 "eager", "local")

    def __init__(self, tag: int):
        self.tag = tag
        self.nbytes = 0
        self.send_posted = False
        self.recv_posted = False
        #: absolute completion times of the background part and of the
        #: foreground remainder; ``None`` until that part has started.
        self.bg_t: Optional[float] = None
        self.fg_t: Optional[float] = None
        self.eager = False
        self.local = False


class MirrorComm(RankComm):
    """The representative rank's communicator.

    Functional payloads are not supported (there are no real peers); use the
    full backend for functional runs. In mirror mode a receive's payload is
    always ``None`` and implementations must run in shadow-data mode.
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
        # Statistics (protocol-conformance checks and reports).
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.bytes_received = 0
        # Run-invariant message constants, derived once with the same
        # expressions the per-message paths used, so every float is equal.
        ic = profile.interconnect
        self._overhead_s = ic.per_message_cpu_us * 1e-6
        self._eager_max = ic.eager_threshold_bytes
        self._latency_s = ic.latency_s
        self._rendezvous_latency_s = 2.0 * ic.latency_s
        #: background_fraction(eager) indexed by ``eager``.
        self._bg_frac = (ic.background_fraction(False), ic.background_fraction(True))
        self._local_rate = profile.node.memcpy_bandwidth_gbs * 1e9
        #: tag -> stays on-node / NIC wire rate (filled on first use).
        self._local_by_tag: Dict[int, bool] = {}
        self._nic_rate_by_tag: Dict[int, float] = {}

    # -- helpers --------------------------------------------------------------
    def _wire_rate(self, xfer: _MirrorXfer) -> float:
        if xfer.local:
            return self._local_rate
        rate = self._nic_rate_by_tag.get(xfer.tag)
        if rate is None:
            share = self.profile.nic_share(xfer.tag)
            npn = self.profile.interconnect.nics_per_node
            if npn > 1:
                # Multi-rail nodes spread the contending senders across
                # their NICs (round-robin striping, as in the full backend);
                # a rail still serves at least its own sender.
                share = max(1.0, share / npn)
            rate = self.profile.interconnect.bandwidth_bps / share
            self._nic_rate_by_tag[xfer.tag] = rate
        return rate

    def _is_local(self, tag: int) -> bool:
        local = self._local_by_tag.get(tag)
        if local is None:
            local = self._local_by_tag[tag] = not self.profile.is_offnode(tag)
        return local

    def _maybe_start_background(self, xfer: _MirrorXfer) -> None:
        if xfer.local:
            ready = xfer.send_posted
            frac = 1.0
            lat = 0.5e-6
        elif xfer.eager:
            # Eager sends need only the sender posted; how much of the wire
            # then moves without host attention is the progress model's call
            # (manual-poll: nothing — paper ref [1] — a progress engine
            # drains the unexpected queue on its own).
            ready = xfer.send_posted
            frac = self._bg_frac[True]
            lat = self._latency_s
        else:
            ready = xfer.send_posted and xfer.recv_posted
            frac = self._bg_frac[False]
            lat = self._rendezvous_latency_s
        if not ready or xfer.bg_t is not None:
            return  # an eager/local send started it before its recv posted
        now = self.env.now
        wire_mult = 1.0
        perturb = self.perturb
        if perturb is not None and not xfer.local:
            lat = lat * perturb.latency_factor(self.rank) + perturb.message_delay(
                self.rank, now
            )
            wire_mult = perturb.wire_factor(self.rank)
        # The NIC share is static, so the completion time is known now: the
        # latency lands first, then the background wire time. Two separate
        # additions, ``(now + lat) + wire`` and not ``now + (lat + wire)``:
        # that is the model's float order, which the golden oracles pin
        # (docs/MODEL.md §7).
        bg_t = now + lat
        if frac > 0:
            bg_t = bg_t + frac * xfer.nbytes * wire_mult / self._wire_rate(xfer)
        xfer.bg_t = bg_t
        tracer = self.tracer
        if tracer is not None:
            lane = (
                "mpi"
                if xfer.local
                or self.profile.interconnect.progress is ProgressModel.MANUAL_POLL
                else "progress"
            )
            tracer.record(
                lane, f"bg t{xfer.tag}", now, bg_t, group=self.rank, cat="comm",
                args={"tag": xfer.tag, "nbytes": xfer.nbytes, "stage": "background"},
            )

    def _foreground_end(self, xfer: _MirrorXfer) -> float:
        """Completion time of the host-driven remainder, fixed at first call.

        The remainder starts when a waiter first reaches it (after the
        background part), so its end is ``now + remainder / rate``.
        """
        fg_t = xfer.fg_t
        if fg_t is not None:
            return fg_t
        now = self.env.now
        remainder = (1.0 - self._bg_frac[xfer.eager]) * xfer.nbytes
        if self.perturb is not None and not xfer.local and remainder > 0:
            remainder *= self.perturb.wire_factor(self.rank)
        if remainder > 0:
            fg_t = now + remainder / self._wire_rate(xfer)
            if self.tracer is not None:
                self.tracer.record(
                    "mpi", f"fg t{xfer.tag}", now, fg_t, group=self.rank, cat="comm",
                    args={"tag": xfer.tag, "nbytes": xfer.nbytes, "stage": "foreground"},
                )
        else:
            fg_t = now
        xfer.fg_t = fg_t
        return fg_t

    # -- API ---------------------------------------------------------------
    def isend(self, dst: int, tag: int, nbytes: int, payload: Any = None):
        """Post the representative rank's send; mirrors the matching recv."""
        if payload is not None:
            raise ValueError("mirror backend cannot carry functional payloads")
        yield self.env.timeout(self._overhead_s)
        xfer = self._claim(tag, "send")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.tracer is not None:
            self.tracer.mark(
                "mpi", "isend", self.env.now, group=self.rank, cat="comm",
                args={"tag": tag, "nbytes": nbytes},
            )
        xfer.nbytes = nbytes
        xfer.eager = nbytes <= self._eager_max
        xfer.local = self._is_local(tag)
        xfer.send_posted = True
        self._maybe_start_background(xfer)
        return Request("send", self.rank, dst, tag, nbytes, _xfer=xfer)

    def irecv(self, src: int, tag: int, nbytes: int):
        """Post a receive; pairs with this rank's own send of ``tag``."""
        yield self.env.timeout(self._overhead_s)
        xfer = self._claim(tag, "recv")
        self.messages_received += 1
        self.bytes_received += nbytes
        if self.tracer is not None:
            self.tracer.mark(
                "mpi", "irecv", self.env.now, group=self.rank, cat="comm",
                args={"tag": tag, "nbytes": nbytes},
            )
        xfer.recv_posted = True
        if xfer.send_posted:
            self._maybe_start_background(xfer)
        return Request("recv", self.rank, src, tag, nbytes, _xfer=xfer)

    def _claim(self, tag: int, side: str) -> _MirrorXfer:
        """Get the next unclaimed xfer for ``tag`` on ``side`` (FIFO pairing).

        The oldest xfer the other side opened and this side has not yet
        claimed, else a new one, queued for the other side's claim.
        """
        q = self._awaiting[side].get(tag)
        if q:
            return q.popleft()
        xfer = _MirrorXfer(tag)
        other = "recv" if side == "send" else "send"
        self._awaiting[other].setdefault(tag, deque()).append(xfer)
        return xfer

    def wait(self, request: Request):
        """Block until the mirrored transfer completes.

        Both completion times are numbers by now (the background part's
        since it started, the remainder's from its first waiter), so the
        wait is at most two absolute-time Timeouts, each only while its
        time is still ahead.
        """
        if request.completed:
            return None
        xfer: _MirrorXfer = request._xfer
        if xfer.eager and not xfer.local and request.kind == "send":
            request.completed = True  # buffered; only the receiver waits
            return None
        env = self.env
        bg_t = xfer.bg_t
        if bg_t is None:
            # The representative rank posts both sides itself, so a transfer
            # its other side has not started by the wait can never finish.
            missing = "send" if request.kind == "recv" else "recv"
            raise SimulationError(
                f"mirror rank {self.rank}: wait on the {request.kind} of tag "
                f"{xfer.tag} before its matching {missing} was posted"
            )
        if bg_t > env.now:
            yield env.timeout_at(bg_t)
        if not xfer.local:
            fg_t = self._foreground_end(xfer)
            if fg_t > env.now:
                yield env.timeout_at(fg_t)
        if (xfer.local or xfer.eager) and request.kind == "recv":
            yield env.timeout(xfer.nbytes / self._local_rate)
        request.completed = True
        return None

    def barrier(self):
        """Log-depth barrier cost (no peers to actually synchronize)."""
        t_enter = self.env.now
        ic = self.profile.interconnect
        rounds = max(1, math.ceil(math.log2(max(2, self.nranks))))
        yield self.env.timeout(rounds * (ic.latency_s + ic.per_message_cpu_us * 1e-6))
        if self.tracer is not None:
            self.tracer.record(
                "mpi-sync", "barrier", t_enter, self.env.now,
                group=self.rank, cat="sync",
            )

    def allreduce_max(self, value: float):
        """Reduction cost; the representative's value is the result."""
        t_enter = self.env.now
        ic = self.profile.interconnect
        rounds = max(1, math.ceil(math.log2(max(2, self.nranks))))
        yield self.env.timeout(2 * rounds * (ic.latency_s + ic.per_message_cpu_us * 1e-6))
        if self.tracer is not None:
            self.tracer.record(
                "mpi-sync", "allreduce", t_enter, self.env.now,
                group=self.rank, cat="sync",
            )
        return value
