"""Task grids and subdomains (paper §IV-B).

The paper's data-distribution rules, implemented exactly:

* every task gets a subdomain "as close to the same size as possible and as
  close to cubic as possible, with the constraint that no task gets an
  empty domain";
* "the subdomain size is largest in the x dimension and smallest in the z
  dimension, to best enable memory locality" — i.e. the task grid has the
  fewest cuts in x and the most in z;
* "the largest subdomain is at most one grid point larger in each dimension
  than the smallest";
* subdomains are aligned, so each task has 26 logical neighbors (a task may
  be its own neighbor for small or prime task counts).

:func:`shared_decomposition` keeps one :class:`Decomposition` per
``(ntasks, domain)`` for the whole process; it fills per-rank
:class:`RankLayout` entries and node-0 scans on first use
(docs/MODEL.md §17).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Sequence, Tuple

from repro.decomp.halo import face_message_bytes, halo_tag

__all__ = [
    "choose_task_grid", "block_range", "Subdomain", "RankLayout", "Decomposition",
    "shared_decomposition",
]

#: One message batch, ``(peer, tag, nbytes)`` per message (simmpi's ``Plan``).
Plan = Tuple[Tuple[int, int, int], ...]

#: Layouts one decomposition keeps. Mirror runs touch one rank; a
#: full-network run over more ranks than this builds the rest once per
#: run, which bounds what a 12,288-rank run leaves behind.
MAX_KEPT_LAYOUTS = 64


def _factor_triples(n: int) -> Iterator[Tuple[int, int, int]]:
    """All ordered triples ``(p1 <= p2 <= p3)`` with ``p1*p2*p3 == n``."""
    p1 = 1
    while p1 * p1 * p1 <= n:
        if n % p1 == 0:
            m = n // p1
            p2 = p1
            while p2 * p2 <= m:
                if m % p2 == 0:
                    yield (p1, p2, m // p2)
                p2 += 1
        p1 += 1


@lru_cache(maxsize=4096)
def choose_task_grid(
    ntasks: int, domain: Tuple[int, int, int] = (420, 420, 420)
) -> Tuple[int, int, int]:
    """Pick the task grid ``(px, py, pz)`` for ``ntasks`` MPI tasks.

    Chooses the factor triple whose subdomains are closest to cubic
    (minimizing surface area at fixed volume, the natural "as close to cubic
    as possible" metric), subject to no dimension being cut below one point.
    The smallest factor goes to x and the largest to z, making subdomains
    largest in x and smallest in z as the paper prescribes.
    """
    if ntasks < 1:
        raise ValueError("ntasks must be >= 1")
    nx, ny, nz = domain
    if ntasks > nx * ny * nz:
        raise ValueError(f"{ntasks} tasks cannot all get non-empty subdomains of {domain}")
    best = None
    best_score = None
    for p1, p2, p3 in _factor_triples(ntasks):
        if p1 > nx or p2 > ny or p3 > nz:
            continue  # would create an empty subdomain
        sx, sy, sz = nx / p1, ny / p2, nz / p3
        # Surface-to-volume of the typical subdomain: lower is more cubic.
        score = (sx * sy + sy * sz + sx * sz) / (sx * sy * sz) ** (2.0 / 3.0)
        if best_score is None or score < best_score - 1e-12:
            best, best_score = (p1, p2, p3), score
    if best is None:
        raise ValueError(f"no valid task grid for {ntasks} tasks on domain {domain}")
    return best


def block_range(n: int, p: int, i: int) -> Tuple[int, int]:
    """Start offset and size of block ``i`` when ``n`` points split ``p`` ways.

    The first ``n % p`` blocks get one extra point, so sizes differ by at
    most one (the paper's imbalance guarantee).
    """
    if not 0 <= i < p:
        raise ValueError(f"block index {i} out of range for {p} blocks")
    if p > n:
        raise ValueError(f"cannot split {n} points into {p} non-empty blocks")
    base, extra = divmod(n, p)
    size = base + (1 if i < extra else 0)
    start = i * base + min(i, extra)
    return start, size


@dataclass(frozen=True)
class Subdomain:
    """One task's block of the global domain."""

    rank: int
    coords: Tuple[int, int, int]  # (tx, ty, tz) in the task grid
    offset: Tuple[int, int, int]  # global offset of the first interior point
    shape: Tuple[int, int, int]  # interior points per dimension

    @property
    def points(self) -> int:
        """Interior point count."""
        sx, sy, sz = self.shape
        return sx * sy * sz



@dataclass(frozen=True)
class RankLayout:
    """One rank's share of a decomposition: what a run reads per rank.

    Shared by every run that uses the decomposition, so every field is
    immutable.
    """

    sub: Subdomain
    #: face-neighbor ranks per dim, ``(side -1, side +1)``
    neighbors: Tuple[Tuple[int, int], ...]
    #: bytes of one face message per dim (planes include the halo rims)
    face_bytes: Tuple[int, int, int]
    #: per dim, ``(recv_plan, send_plan)`` of the face exchange, both
    #: listing the ``-1`` side first. My halo on ``side`` is filled by the
    #: ``(dim, side)`` neighbor's send toward ``-side``, so a receive from
    #: that neighbor carries ``halo_tag(dim, -side)``; the send to it
    #: carries ``halo_tag(dim, side)``.
    halo_plans: Tuple[Tuple[Plan, Plan], ...]


class Decomposition:
    """The full task-grid decomposition of a periodic global domain.

    Rank order is x-fastest (``rank = tx + px*(ty + py*tz)``), matching the
    usual Cartesian layout in which consecutive ranks — which job launchers
    place on the same node — are x neighbors.

    Per-rank layouts and node-0 scans are computed on first use and kept.
    A fill stores an immutable value equal to what any other fill of the
    same key computes, so threads racing on one key are harmless.
    """

    def __init__(self, ntasks: int, domain: Sequence[int] = (420, 420, 420)):
        self.domain = tuple(int(v) for v in domain)
        self.ntasks = int(ntasks)
        self.task_grid = choose_task_grid(self.ntasks, self.domain)
        self._layouts: Dict[int, RankLayout] = {}
        self._node0: Dict[int, tuple] = {}

    def coords_of(self, rank: int) -> Tuple[int, int, int]:
        """Task-grid coordinates of ``rank``."""
        px, py, _ = self.task_grid
        return (rank % px, (rank // px) % py, rank // (px * py))

    def rank_of(self, coords: Sequence[int]) -> int:
        """Rank at task-grid ``coords`` (periodic wraparound applied)."""
        px, py, pz = self.task_grid
        tx, ty, tz = (int(c) % p for c, p in zip(coords, (px, py, pz)))
        return tx + px * (ty + py * tz)

    def layout(self, rank: int) -> RankLayout:
        """The :class:`RankLayout` of ``rank``; the first
        :data:`MAX_KEPT_LAYOUTS` ranks asked for are kept and shared."""
        lay = self._layouts.get(rank)
        if lay is None:
            lay = self._build_layout(rank)
            if len(self._layouts) < MAX_KEPT_LAYOUTS:
                self._layouts[rank] = lay
        return lay

    def _build_layout(self, rank: int) -> RankLayout:
        sub = self._subdomain(rank)
        neighbors = tuple(
            (self.neighbor(rank, d, -1), self.neighbor(rank, d, 1)) for d in range(3)
        )
        face_bytes = tuple(face_message_bytes(sub.shape, d) for d in range(3))
        halo_plans = tuple(
            (
                tuple((peer, halo_tag(d, -side), face_bytes[d])
                      for side, peer in zip((-1, 1), neighbors[d])),
                tuple((peer, halo_tag(d, side), face_bytes[d])
                      for side, peer in zip((-1, 1), neighbors[d])),
            )
            for d in range(3)
        )
        return RankLayout(sub, neighbors, face_bytes, halo_plans)

    def subdomain(self, rank: int) -> Subdomain:
        """The :class:`Subdomain` owned by ``rank``."""
        lay = self._layouts.get(rank)
        return lay.sub if lay is not None else self._subdomain(rank)

    def _subdomain(self, rank: int) -> Subdomain:
        if not 0 <= rank < self.ntasks:
            raise ValueError(f"rank {rank} out of range for {self.ntasks} tasks")
        coords = self.coords_of(rank)
        offs, sizes = [], []
        for d in range(3):
            start, size = block_range(self.domain[d], self.task_grid[d], coords[d])
            offs.append(start)
            sizes.append(size)
        return Subdomain(rank=rank, coords=coords, offset=tuple(offs), shape=tuple(sizes))

    def neighbor(self, rank: int, dim: int, side: int) -> int:
        """Rank of the face neighbor of ``rank`` along ``dim`` (side ±1)."""
        if side not in (-1, 1):
            raise ValueError("side must be -1 or +1")
        coords = list(self.coords_of(rank))
        coords[dim] += side
        return self.rank_of(coords)

    def min_subdomain_shape(self) -> Tuple[int, int, int]:
        """Shape of the smallest subdomain."""
        return tuple(
            block_range(self.domain[d], self.task_grid[d], self.task_grid[d] - 1)[1]
            for d in range(3)
        )

    def node_of(self, rank: int, tasks_per_node: int) -> int:
        """Node index hosting ``rank`` under contiguous block placement."""
        if tasks_per_node < 1:
            raise ValueError("tasks_per_node must be >= 1")
        return rank // tasks_per_node

    def offnode_dims(self, rank: int, tasks_per_node: int) -> Dict[int, Tuple[bool, bool]]:
        """For each dim, whether the (-,+) face neighbors live on another node.

        Used by the network models: on-node halo messages move at memory
        speed, off-node ones cross the NIC.
        """
        me = self.node_of(rank, tasks_per_node)
        out = {}
        for d in range(3):
            out[d] = tuple(
                self.node_of(self.neighbor(rank, d, s), tasks_per_node) != me
                for s in (-1, 1)
            )
        return out

    def node0_scan(self, tasks_per_node: int):
        """``(rep, offnode_by_tag, nic_share_by_tag)`` of node 0, as item tuples.

        What the mirror backend's representative needs
        (:meth:`repro.simmpi.mirror.MirrorProfile.for_decomposition`):
        scans the ranks of node 0 (placement is contiguous), picks the one
        with the most off-node faces, and counts how many node-local
        transfers contend for the NIC in each dimension's exchange phase.
        ``tasks_per_node`` must not exceed ``ntasks``. Computed once per
        placement.
        """
        scan = self._node0.get(tasks_per_node)
        if scan is not None:
            return scan
        node_ranks = range(tasks_per_node)
        off = {r: self.offnode_dims(r, tasks_per_node) for r in node_ranks}
        rep = max(node_ranks, key=lambda r: sum(sum(d) for d in off[r].values()))
        offnode_by_tag, nic_share_by_tag = [], []
        for dim in range(3):
            # Send messages from this node during the dim exchange phase.
            node_sends = sum(int(b) for r in node_ranks for b in off[r][dim])
            for side in (-1, 1):
                tag = halo_tag(dim, side)
                offnode_by_tag.append((tag, off[rep][dim][0 if side < 0 else 1]))
                nic_share_by_tag.append((tag, max(1.0, float(node_sends))))
        scan = self._node0[tasks_per_node] = (
            rep, tuple(offnode_by_tag), tuple(nic_share_by_tag)
        )
        return scan


@lru_cache(maxsize=256)
def shared_decomposition(ntasks: int, domain: Tuple[int, int, int]) -> Decomposition:
    """The process-wide :class:`Decomposition` of ``ntasks`` over ``domain``.

    Runs of one ``(ntasks, domain)`` share it, and with it every layout
    and node-0 scan any of them filled. Bounded like
    :func:`choose_task_grid`; an evicted decomposition is rebuilt on demand
    with equal contents.
    """
    return Decomposition(ntasks, domain)
