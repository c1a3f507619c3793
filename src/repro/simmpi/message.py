"""The message model both MPI backends time their sends with.

A send's protocol and placement decide everything static about it: whether
it moves before its receive posts, its start-up latency, how much of its
wire moves without host attention (the progress model's call), and the
receive-side copy. :class:`_Pricing` derives those facts once per
``(share, nbytes)`` (:class:`_SendPrice`); the full backend
(:mod:`~repro.simmpi.world`) and the mirror backend
(:mod:`~repro.simmpi.mirror`) read them from the same table, and apply
perturbation through the same two helpers, so the protocol rules are
written once (docs/MODEL.md §2).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.machines.spec import InterconnectSpec, NodeSpec, ProgressModel

__all__ = ["pricing", "perturbed_background", "perturbed_remainder"]


class _SendPrice:
    """The static facts of one send: placement, protocol, latency,
    background fraction, wire rate, and what follows from them.

    Everything here follows from the send's placement and NIC share, the
    size and the interconnect, so it is derived once (:class:`_Pricing`),
    with the expressions the per-message path used: ``bg_wire`` is
    ``frac * nbytes / rate`` and ``fg_wire`` is ``remainder / rate``, the
    floats an unperturbed message computes (a wire factor of 1.0 changes
    no bit). A perturbed message draws its factors and redoes that
    arithmetic from ``frac`` and ``rate``.
    """

    __slots__ = ("local", "unpaired", "buffered", "lat", "frac", "rate",
                 "bg_wire", "fg_wire", "copy_s")

    def __init__(self, local: bool, eager: bool, lat: float, frac: float,
                 rate: float, nbytes: int, local_rate: float):
        self.local = local
        #: on-node and eager sends start moving before their receive posts.
        self.unpaired = local or eager
        #: an off-node eager send completes at once; only its receiver waits.
        self.buffered = eager and not local
        self.lat = lat
        self.frac = frac
        self.rate = rate
        #: background wire seconds; 0.0 adds nothing when ``frac == 0``.
        self.bg_wire = frac * nbytes / rate if frac > 0 else 0.0
        #: host-driven remainder's wire seconds (off-node), None if none.
        remainder = (1.0 - frac) * nbytes
        self.fg_wire = remainder / rate if remainder > 0 else None
        #: receive-side copy out of the receive/unexpected buffer, or None.
        self.copy_s = nbytes / local_rate if (local or eager) else None


#: Prices one :class:`_Pricing` keeps before it starts over: a bound on
#: memory (about 310 bytes a price, tracemalloc), five times the most
#: (416) that a cold fast regeneration leaves in any of its 14 tables.
_MAX_SHARED_PRICES = 2048


class _Pricing:
    """Send prices under one interconnect and node memcpy rate.

    A price depends on its peer only through the send's placement and NIC
    share, so every communicator on the same interconnect shares one
    table, keyed ``(share, nbytes)`` (``share`` is None on-node). A fill
    stores what any other fill of the key computes, so communicators on
    different threads may race on an entry.
    """

    def __init__(self, ic: InterconnectSpec, local_rate: float):
        self.local_rate = local_rate
        self.eager_max = ic.eager_threshold_bytes
        #: (latency, background fraction) of an off-node send, by ``eager``.
        self.offnode_terms = (
            (2.0 * ic.latency_s, ic.background_fraction(False)),
            (ic.latency_s, ic.background_fraction(True)),
        )
        self.nic_bps = ic.bandwidth_bps
        self.nics_per_node = ic.nics_per_node
        #: Trace lane of off-node background wire time: "mpi" under the
        #: paper-era manual-poll model, "progress" when an engine (thread
        #: or NIC) advances it, so the obs layer separates
        #: library-attended from autonomously progressed traffic.
        self.bg_lane = (
            "mpi" if ic.progress is ProgressModel.MANUAL_POLL else "progress"
        )
        self._prices: Dict[Tuple[Optional[float], int], _SendPrice] = {}

    def price(self, share: Optional[float], nbytes: int) -> _SendPrice:
        """An ``nbytes`` send: on-node when ``share`` is None, else off-node
        behind a NIC that ``share`` concurrent transfers contend for.

        An on-node send is a memcpy with a fixed 0.5 µs start-up, all of it
        in the background. Off-node, an eager send needs only the sender
        posted, and how much of the wire then moves without host attention
        is the progress model's call (manual-poll: nothing — paper ref
        [1] — a progress engine drains the unexpected queue on its own); a
        rendezvous send pays a round trip of latency first.
        """
        key = (share, nbytes)
        price = self._prices.get(key)
        if price is not None:
            return price
        eager = nbytes <= self.eager_max
        if share is None:
            price = _SendPrice(True, eager, 0.5e-6, 1.0, self.local_rate,
                               nbytes, self.local_rate)
        else:
            if self.nics_per_node > 1:
                # Multi-rail nodes spread the contending senders across
                # their NICs (round-robin striping, as in the full backend);
                # a rail still serves at least its own sender.
                share = max(1.0, share / self.nics_per_node)
            lat, frac = self.offnode_terms[eager]
            price = _SendPrice(False, eager, lat, frac, self.nic_bps / share,
                               nbytes, self.local_rate)
        if len(self._prices) >= _MAX_SHARED_PRICES:
            self._prices.clear()
        self._prices[key] = price
        return price

    def lane(self, price: _SendPrice) -> str:
        """Trace lane of ``price``'s background part (on-node: "mpi")."""
        return "mpi" if price.local else self.bg_lane


@lru_cache(maxsize=16)
def _pricing(ic: InterconnectSpec, local_rate: float) -> _Pricing:
    return _Pricing(ic, local_rate)


def pricing(ic: InterconnectSpec, node: NodeSpec) -> _Pricing:
    """The process-wide price table of sends on ``ic`` between ``node``s."""
    return _pricing(ic, node.memcpy_bandwidth_gbs * 1e9)


def perturbed_background(
    price: _SendPrice, perturb, rank: int, now: float
) -> Tuple[float, float]:
    """Latency and wire factor of a perturbed off-node send's background
    part posted by ``rank`` at ``now``.

    Draws in this order: the latency factor, the message delay, the wire
    factor. The latency is ``lat * latency_factor + message_delay``.
    """
    lat = price.lat * perturb.latency_factor(rank) + perturb.message_delay(rank, now)
    return lat, perturb.wire_factor(rank)


def perturbed_remainder(price: _SendPrice, nbytes: int, perturb, rank: int) -> float:
    """Wire bytes of an off-node send's host-driven remainder, scaled by a
    wire-factor draw when ``perturb`` is set and there is a remainder."""
    remainder = (1.0 - price.frac) * nbytes
    if perturb is not None and remainder > 0:
        remainder *= perturb.wire_factor(rank)
    return remainder
