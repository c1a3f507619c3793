"""The per-rank communication API shared by both MPI backends.

Calls that consume host time are generators: the caller writes
``req = yield from comm.isend(...)`` inside its own DES process, so MPI
CPU overheads land on the calling rank's timeline — exactly the property
the paper's overlap experiments hinge on.

An exchange phase posts and completes its messages in batches: a *plan*
is a sequence of ``(peer, tag, nbytes)`` triples, and
``reqs = yield from comm.irecv_all(plan)`` / ``comm.isend_all(plan,
payloads)`` post them in order, ``comm.waitall(reqs)`` completes them in
order (docs/MODEL.md §2).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple

from repro.decomp.halo import HALO_TAGS, halo_tag

__all__ = ["halo_tag", "HALO_TAGS", "Request", "RankComm", "Plan"]

#: One batch of messages: ``(peer, tag, nbytes)`` per message, in post order.
Plan = Sequence[Tuple[int, int, int]]


class Request:
    """Handle for a pending nonblocking operation.

    A plain slotted class: a cold regeneration builds one per message, so
    construction is a bare ``__init__``.  Requests compare by identity.
    """

    __slots__ = ("kind", "rank", "peer", "tag", "nbytes", "payload",
                 "completed", "_xfer", "_match_event")

    def __init__(
        self,
        kind: str,  # "send" or "recv"
        rank: int,
        peer: int,
        tag: int,
        nbytes: int,
        payload: Any = None,  # send payload, or recv result once completed
        completed: bool = False,
        _xfer: Any = None,  # backend bookkeeping
    ):
        if kind != "send" and kind != "recv":
            raise ValueError(f"bad request kind {kind!r}")
        self.kind = kind
        self.rank = rank
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.completed = completed
        self._xfer = _xfer
        #: full backend: fires when a posted receive finds its send
        self._match_event: Any = None


class RankComm:
    """Abstract per-rank communicator. See backend docs for semantics.

    A backend implements the batch calls :meth:`irecv_all`,
    :meth:`isend_all` and :meth:`waitall`; the single-message calls
    :meth:`isend`, :meth:`irecv` and :meth:`wait` are batches of one.
    """

    rank: int
    nranks: int
    #: Statistics (protocol-conformance checks and reports), counted per
    #: posted message by the backend.
    messages_sent = 0
    bytes_sent = 0
    messages_received = 0
    bytes_received = 0

    def irecv_all(self, plan: Plan):
        """Generator: post one receive per plan entry, in order; returns them."""
        raise NotImplementedError

    def isend_all(self, plan: Plan, payloads: Optional[Sequence[Any]] = None):
        """Generator: post one send per plan entry, in order; returns them.
        ``payloads`` (functional runs only) runs parallel to ``plan``."""
        raise NotImplementedError

    def waitall(self, requests: Iterable[Request]):
        """Generator: complete each request in turn (MPI_Waitall); returns the
        payloads in request order (``None`` for sends and in shadow mode)."""
        raise NotImplementedError

    def isend(self, dst: int, tag: int, nbytes: int, payload: Any = None):
        """Generator: post a nonblocking send; returns a :class:`Request`."""
        reqs = yield from self.isend_all(
            ((dst, tag, nbytes),), None if payload is None else (payload,)
        )
        return reqs[0]

    def irecv(self, src: int, tag: int, nbytes: int):
        """Generator: post a nonblocking receive; returns a :class:`Request`."""
        reqs = yield from self.irecv_all(((src, tag, nbytes),))
        return reqs[0]

    def wait(self, request: Request):
        """Generator: block until ``request`` completes; returns a receive's
        payload (``None`` in shadow mode)."""
        payloads = yield from self.waitall((request,))
        return payloads[0]

    def barrier(self):
        """Generator: dissemination barrier across all ranks."""
        raise NotImplementedError

    def allreduce_max(self, value: float):
        """Generator: max-allreduce of one scalar (used for norms/timing)."""
        raise NotImplementedError
