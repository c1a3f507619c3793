"""Counter-based deterministic RNG for the perturbation layer.

The perturbation layer must be **reproducible** (same seed, same config →
bit-identical results, across processes and worker counts) and
**order-independent** (a draw's value must not depend on how many draws
*other* simulated components made before it). Stateful generators fail the
second requirement: interleaving changes with scheduling details. Instead,
every random number here is a pure function of a four-word key::

    value = mix(seed, group, lane, index)

in the style of Philox/SplitMix counter RNGs: the SplitMix64 finalizer is
applied over the key words, which passes the usual avalanche criteria
(flipping any input bit flips ~half the output bits). Each simulated
component draws from its own :class:`Stream` — a ``(seed, group, lane)``
triple with a private ``index`` counter — so streams never interfere.

The key words are absorbed in order, so a stream's state after
``(seed, group, lane)`` is the same for every draw. :class:`Stream`
computes that state once at construction and mixes in only the index per
draw; :func:`counter_u64` stays the reference it must equal bit for bit.

Pure-Python on purpose: draws happen at most a few times per simulated
event, the engine is Python too, and avoiding NumPy keeps per-draw
allocation at zero.
"""

from __future__ import annotations

import math

__all__ = [
    "LANE_COMPUTE",
    "LANE_NET_LATENCY",
    "LANE_NET_BANDWIDTH",
    "LANE_STALL",
    "LANE_DROP",
    "LANE_PCIE",
    "LANE_KERNEL",
    "LANE_STRAGGLER",
    "LANE_REPLICA",
    "counter_u64",
    "counter_uniform",
    "derive_seed",
    "Stream",
]

#: Lane ids — one per perturbation site family. Streams on different lanes
#: are statistically independent even for the same (seed, group).
LANE_COMPUTE = 0  #: host OS-noise jitter on compute chunks
LANE_NET_LATENCY = 1  #: per-message latency jitter
LANE_NET_BANDWIDTH = 2  #: per-message wire-time jitter
LANE_STALL = 3  #: MPI progress-stall injection
LANE_DROP = 4  #: dropped-message / retransmit faults
LANE_PCIE = 5  #: PCIe / driver jitter
LANE_KERNEL = 6  #: GPU kernel duration jitter
LANE_STRAGGLER = 7  #: per-rank straggler designation
LANE_REPLICA = 8  #: Monte-Carlo replica seed derivation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / phi, the SplitMix64 increment
_INV_2_53 = 1.0 / (1 << 53)


def _mix(z: int) -> int:
    """SplitMix64 finalizer: avalanche one 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def counter_u64(seed: int, group: int, lane: int, index: int) -> int:
    """The keyed 64-bit draw: a pure function of ``(seed, group, lane, index)``.

    Words are absorbed sequentially, each offset by a distinct multiple of
    the golden-ratio increment so that permuting key words changes the
    output (``(a, b)`` and ``(b, a)`` collide in naive xor folding).
    """
    z = _mix((seed + _GOLDEN) & _MASK64)
    z = _mix(z ^ ((group + 2 * _GOLDEN) & _MASK64))
    z = _mix(z ^ ((lane + 3 * _GOLDEN) & _MASK64))
    z = _mix(z ^ ((index + 5 * _GOLDEN) & _MASK64))
    return z


def counter_uniform(seed: int, group: int, lane: int, index: int) -> float:
    """Keyed uniform draw in ``[0, 1)`` (53-bit mantissa, exact halving grid)."""
    return (counter_u64(seed, group, lane, index) >> 11) * _INV_2_53


def derive_seed(seed: int, replica: int) -> int:
    """Child seed for Monte-Carlo replica ``replica`` (replica 0 = ``seed``).

    Replica 0 maps to the parent seed itself so ``--replicas 1`` is the
    same run as no replication; higher replicas draw fresh 63-bit seeds
    from the :data:`LANE_REPLICA` stream.
    """
    if replica == 0:
        return seed
    return counter_u64(seed, 0, LANE_REPLICA, replica) >> 1


class Stream:
    """One component's private draw sequence: ``(seed, group, lane)`` + index.

    The index increments per draw, so repeated draws differ, but the values
    are independent of any *other* stream's activity — the
    order-independence the simulator needs to stay deterministic across
    backends, worker counts and scheduling refactors.

    The mixed state after ``(seed, group, lane)`` is computed once here, so
    a draw costs one finalizer instead of four; draw ``i`` equals
    ``counter_u64(seed, group, lane, i)`` exactly.
    """

    __slots__ = ("seed", "group", "lane", "index", "_key")

    def __init__(self, seed: int, group: int, lane: int):
        self.seed = seed
        self.group = group
        self.lane = lane
        self.index = 0
        z = _mix((seed + _GOLDEN) & _MASK64)
        z = _mix(z ^ ((group + 2 * _GOLDEN) & _MASK64))
        self._key = _mix(z ^ ((lane + 3 * _GOLDEN) & _MASK64))

    def uniform(self) -> float:
        """Next uniform draw in ``[0, 1)``."""
        i = self.index
        self.index = i + 1
        # counter_u64's last absorption, with _mix written inline.
        z = self._key ^ ((i + 5 * _GOLDEN) & _MASK64)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * _INV_2_53

    def normal(self) -> float:
        """Next standard-normal draw (Box–Muller over two keyed uniforms)."""
        u1 = self.uniform()
        u2 = self.uniform()
        # Guard u1 == 0 (probability 2^-53; log would blow up).
        r = math.sqrt(-2.0 * math.log(u1 + _INV_2_53))
        return r * math.cos(2.0 * math.pi * u2)

    def lognormal_factor(self, sigma: float) -> float:
        """Multiplicative jitter factor ``exp(sigma * N(0,1) - sigma^2/2)``.

        The ``-sigma^2/2`` drift keeps the factor's *mean* at 1, so adding
        jitter perturbs individual runs without inflating the average cost
        (replication means stay anchored to the noiseless model for small
        sigma).
        """
        if sigma <= 0.0:
            return 1.0
        # normal() with its two uniform() draws written inline: the
        # seeded hot path calls this once per priced operation.
        i = self.index
        self.index = i + 2
        key = self._key
        z = key ^ ((i + 5 * _GOLDEN) & _MASK64)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        u1 = ((z ^ (z >> 31)) >> 11) * _INV_2_53
        z = key ^ ((i + 1 + 5 * _GOLDEN) & _MASK64)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        u2 = ((z ^ (z >> 31)) >> 11) * _INV_2_53
        r = math.sqrt(-2.0 * math.log(u1 + _INV_2_53))
        normal = r * math.cos(2.0 * math.pi * u2)
        return math.exp(sigma * normal - 0.5 * sigma * sigma)

    def exponential(self, mean: float) -> float:
        """Next exponential draw with the given mean (heavy-ish stall tails)."""
        if mean <= 0.0:
            return 0.0
        u = self.uniform()
        return -mean * math.log(1.0 - u + _INV_2_53)

    def bernoulli(self, prob: float) -> bool:
        """Next biased coin flip (``True`` with probability ``prob``)."""
        if prob <= 0.0:
            return False
        if prob >= 1.0:
            return True
        return self.uniform() < prob

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Stream(seed={self.seed}, group={self.group}, "
            f"lane={self.lane}, index={self.index})"
        )
