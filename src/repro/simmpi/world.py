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
from typing import Any, Dict, Optional, Tuple

from repro.des import Environment, Event, SharedBandwidth
from repro.machines.spec import InterconnectSpec, NodeSpec, ProgressModel
from repro.simmpi.api import RankComm, Request

__all__ = ["World"]


class _Xfer:
    """One message in flight."""

    __slots__ = (
        "src",
        "dst",
        "tag",
        "nbytes",
        "payload",
        "eager",
        "local",
        "both_posted",
        "bg_done",
        "fg_done",
        "fg_started",
    )

    def __init__(self, src, dst, tag, nbytes, payload, eager, local, env):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.eager = eager
        self.local = local
        self.both_posted = False
        self.bg_done: Event = env.event()
        self.fg_done: Optional[Event] = None
        self.fg_started = False


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
        #: Background wire intervals land on the "mpi" lane under the
        #: paper-era manual-poll model and on the "progress" lane when an
        #: engine (thread or NIC) advances them — the obs layer separates
        #: library-attended from autonomously-progressed traffic.
        self._bg_lane = (
            "mpi" if interconnect.progress is ProgressModel.MANUAL_POLL
            else "progress"
        )
        self._posted_sends: Dict[Tuple[int, int, int], deque] = {}
        self._posted_recvs: Dict[Tuple[int, int, int], deque] = {}
        # Barrier / allreduce state.
        self._bar_count = 0
        self._bar_event = env.event()
        self._red_count = 0
        self._red_event = env.event()
        self._red_acc: Optional[float] = None

    # -- topology -------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Node hosting ``rank`` (contiguous placement)."""
        return rank // self.tasks_per_node

    def is_local(self, src: int, dst: int) -> bool:
        """True when both ranks share a node (message moves at memory speed)."""
        return self.node_of(src) == self.node_of(dst)

    def comm(self, rank: int) -> "WorldRankComm":
        """Per-rank communicator handle."""
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range")
        return WorldRankComm(self, rank)

    # -- wire -----------------------------------------------------------------
    def _memcpy_rate(self) -> float:
        return self.node.memcpy_bandwidth_gbs * 1e9

    def _wire(self, src: int, nbytes: float, local: bool) -> Event:
        """Move ``nbytes`` (through the sender's NIC if off-node)."""
        if local:
            done = self.env.event()
            # Slot-scheduled completion — no mover process per on-node copy.
            self.env.schedule(nbytes / self._memcpy_rate(), done.succeed)
            return done
        nic = self.node_of(src) * self._npn + (src % self._npn)
        return self.nics[nic].transfer(nbytes)

    def _start_background(self, xfer: _Xfer) -> None:
        """Launch the background part of a transfer (latency + RDMA share).

        Callback-chained timeouts (a latency slot, then a wire completion
        callback) replace the per-transfer ``bg()`` generator process of the
        seed engine.
        """
        if xfer.local:
            frac = 1.0  # on-node: a plain memcpy, fully asynchronous is moot
            lat = 0.5e-6
        else:
            # How much of the wire moves without host attention is the
            # progress model's call (manual-poll: nothing for eager — the
            # paper's ref [1], "Where's the overlap?" — and the calibrated
            # in-library fraction for rendezvous).
            frac = self.ic.background_fraction(xfer.eager)
            lat = (
                self.ic.latency_s if xfer.eager
                else 2.0 * self.ic.latency_s  # rendezvous handshake round trip
            )

        wire_mult = 1.0
        perturb = self.perturb
        if perturb is not None and not xfer.local:
            lat = lat * perturb.latency_factor(xfer.src) + perturb.message_delay(
                xfer.src, self.env.now
            )
            wire_mult = perturb.wire_factor(xfer.src)

        bg_done = xfer.bg_done
        tracer = self.tracer
        if tracer is not None:
            start = self.env.now
            lane = "mpi" if xfer.local else self._bg_lane
            bg_done.callbacks.append(
                lambda _ev, s=start, x=xfer, lane=lane: tracer.record(
                    lane, f"bg d{x.dst} t{x.tag}", s, self.env.now,
                    group=x.src, cat="comm",
                    args={"src": x.src, "dst": x.dst, "tag": x.tag,
                          "nbytes": x.nbytes, "stage": "background"},
                )
            )
        if frac > 0:
            def after_latency(_arg, *, xfer=xfer, frac=frac, mult=wire_mult):
                wire = self._wire(xfer.src, frac * xfer.nbytes * mult, xfer.local)
                wire.callbacks.append(lambda _ev: bg_done.succeed())

            self.env.schedule(lat, after_latency)
        else:
            self.env.schedule(lat, bg_done.succeed)

    def _ensure_foreground(self, xfer: _Xfer) -> Event:
        """Start (once) the in-wait remainder of a rendezvous transfer."""
        if xfer.fg_done is None:
            xfer.fg_done = self.env.event()
        if not xfer.fg_started:
            xfer.fg_started = True
            bg_frac = self.ic.background_fraction(xfer.eager)
            remainder = (1.0 - bg_frac) * xfer.nbytes
            if self.perturb is not None and not xfer.local and remainder > 0:
                remainder *= self.perturb.wire_factor(xfer.src)
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
                wire = self._wire(xfer.src, remainder, xfer.local)
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
        if xfer.eager or xfer.local or xfer.both_posted:
            self._start_background(xfer)

    def _post_recv(self, req: Request) -> None:
        key = (req.peer, req.rank, req.tag)
        sends = self._posted_sends.get(key)
        if sends:
            xfer = sends.popleft()
            req._xfer = xfer
            req.payload = xfer.payload
            if not (xfer.eager or xfer.local):
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
        # Statistics (protocol-conformance checks and reports).
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.bytes_received = 0

    @property
    def env(self) -> Environment:
        """The world's DES environment."""
        return self.world.env

    def _overhead(self):
        return self.env.timeout(self.world.ic.per_message_cpu_us * 1e-6)

    # -- point to point -----------------------------------------------------
    def isend(self, dst: int, tag: int, nbytes: int, payload: Any = None):
        """Post a nonblocking send (generator; returns a Request)."""
        yield self._overhead()
        w = self.world
        local = w.is_local(self.rank, dst)
        eager = nbytes <= w.ic.eager_threshold_bytes
        xfer = _Xfer(self.rank, dst, tag, nbytes, payload, eager, local, self.env)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if w.tracer is not None:
            w.tracer.mark(
                "mpi", "isend", self.env.now, group=self.rank, cat="comm",
                args={"src": self.rank, "dst": dst, "tag": tag, "nbytes": nbytes},
            )
        w._post_send(xfer)
        return Request("send", self.rank, dst, tag, nbytes, payload, _xfer=xfer)

    def irecv(self, src: int, tag: int, nbytes: int):
        """Post a nonblocking receive (generator; returns a Request)."""
        yield self._overhead()
        req = Request("recv", self.rank, src, tag, nbytes)
        self.messages_received += 1
        self.bytes_received += nbytes
        if self.world.tracer is not None:
            self.world.tracer.mark(
                "mpi", "irecv", self.env.now, group=self.rank, cat="comm",
                args={"src": src, "dst": self.rank, "tag": tag, "nbytes": nbytes},
            )
        self.world._post_recv(req)
        return req

    def wait(self, request: Request):
        """Block until ``request`` completes; returns payload for receives."""
        w = self.world
        if request.completed:
            return request.payload
        if request.kind == "recv" and request._xfer is None:
            yield request._match_event
        xfer: _Xfer = request._xfer
        if xfer.eager and not xfer.local and request.kind == "send":
            # Eager sends complete as soon as the data is buffered; only the
            # receiver is exposed to the wire.
            request.completed = True
            return None
        if not xfer.bg_done.processed:
            yield xfer.bg_done
        if not xfer.local:
            # Finish the wire work MPI could not progress in the background.
            yield w._ensure_foreground(xfer)
        if (xfer.local or xfer.eager) and request.kind == "recv":
            # Copy out of the receive/unexpected buffer.
            yield self.env.timeout(xfer.nbytes / w._memcpy_rate())
        request.payload = xfer.payload if request.kind == "recv" else request.payload
        request.completed = True
        return request.payload if request.kind == "recv" else None

    # -- collectives ---------------------------------------------------------
    def _log_rounds(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.nranks))))

    def barrier(self):
        """Dissemination barrier: completes after the last rank arrives."""
        t_enter = self.env.now
        yield self._overhead()
        w = self.world
        ev = w._bar_event
        w._bar_count += 1
        if w._bar_count == w.nranks:
            w._bar_count = 0
            w._bar_event = self.env.event()
            ev.succeed()
        yield ev
        yield self.env.timeout(self._log_rounds() * w.ic.latency_s)
        if w.tracer is not None:
            w.tracer.record(
                "mpi-sync", "barrier", t_enter, self.env.now,
                group=self.rank, cat="sync",
            )

    def allreduce_max(self, value: float):
        """Max-allreduce of a scalar across all ranks."""
        t_enter = self.env.now
        yield self._overhead()
        w = self.world
        ev = w._red_event
        w._red_acc = value if w._red_acc is None else max(w._red_acc, value)
        w._red_count += 1
        if w._red_count == w.nranks:
            result = w._red_acc
            w._red_count = 0
            w._red_acc = None
            w._red_event = self.env.event()
            ev.succeed(result)
        result = yield ev
        yield self.env.timeout(2 * self._log_rounds() * w.ic.latency_s)
        if w.tracer is not None:
            w.tracer.record(
                "mpi-sync", "allreduce", t_enter, self.env.now,
                group=self.rank, cat="sync",
            )
        return result
