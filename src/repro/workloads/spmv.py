"""Hybrid SpMV with explicit communication overlap (Schubert et al.).

The first non-advection workload: ``y = A x`` iterated for ``steps``
sweeps, with the banded/random sparse matrix ``A`` partitioned by
contiguous row blocks (arXiv:1106.5908 §3). Unlike the stencil's uniform
face halos, the communication pattern is *irregular*: before each sweep a
rank gathers exactly the remote ``x`` entries its nonzero columns touch,
so per-peer message sizes follow the actual column coupling — a band of
``2*band+1`` diagonals plus ``extras`` uniformly random columns per row.

Matrix model
------------
Row ``i`` couples to columns ``[i-band, i+band]`` (clipped at the matrix
edge) plus ``extras`` pseudo-random columns drawn by a counter-based
SplitMix64 generator — a pure function of ``(pseed, row, draw)``, so the
pattern is identical across worker counts, network backends and rank
orders. Duplicated draws stay duplicated in the stored matrix (CRS keeps
what you put in it) but are deduplicated in the gather plan (an ``x``
entry is fetched once).

Communication model
-------------------
Per sweep, rank ``r`` exchanges with each coupled peer ``p`` under the
symmetric pair tag :func:`gather_tag`; the message to ``p`` carries the
``x`` entries ``p`` needs from ``r`` (and vice versa). In mirror mode the
representative rank's own need sizes both directions of each pair — the
same symmetry argument the stencil mirror makes, accurate here because
row blocks differ by at most one row and the random couplings are
uniform. The three variants map Schubert's §4 schemes onto the existing
simulators:

* ``bulk`` — vector mode: gather everything, then one full SpMV sweep;
* ``nonblocking`` — naive overlap: local-only rows (no remote columns)
  are swept while the gathers fly; boundary rows follow at the strided
  boundary-loop efficiency;
* ``hybrid_overlap`` — GPU task mode (Choi et al., arXiv:2202.11819):
  the local-rows kernel launches immediately on stream 1 while the host
  runs the gather; received entries ride stream 2's copy engine (skipped
  under GPUDirect) ahead of the remote-rows kernel, and the x-update and
  next-sweep staging run on the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import Implementation, freeze_implementations
from repro.core.config import RunConfig, RunResult
from repro.core.context import RankContext
from repro.decomp.partition import block_range
from repro.machines.spec import GpuSpec
from repro.simmpi.mirror import MirrorProfile
from repro.stencil.analytic import error_norms
from repro.workloads import Workload

__all__ = [
    "SpmvWorkload",
    "SpmvProblem",
    "RowBlock",
    "SpmvPartition",
    "SpmvRankData",
    "spmv_params",
    "gather_tag",
    "DEFAULT_SPMV_PARAMS",
]

#: Default problem shape (overridable per config via ``workload_params``).
DEFAULT_SPMV_PARAMS: Dict[str, int] = {
    "rows": 1_048_576,  # matrix dimension
    "band": 48,         # half bandwidth: row i couples to [i-48, i+48]
    "extras": 4,        # additional random couplings per row
    "pseed": 1,         # matrix pattern seed (not the noise seed)
}

#: First tag used by the gather exchange (clear of the six halo tags).
SPMV_TAG_BASE = 16

#: CRS sweep cost per stored nonzero: one FMA ...
SPMV_FLOPS_PER_NNZ = 2.0
#: ... against 8 B value + 4 B column index + amortized irregular x read.
SPMV_BYTES_PER_NNZ = 20.0
#: x-update (scale y into x) traffic per row: read 8 B + write 8 B.
SPMV_X_BYTES_PER_ROW = 16.0
#: flops per row of the x-update.
SPMV_X_FLOPS_PER_ROW = 1.0
#: Gather pack/unpack is a strided indexed copy, not a streaming memcpy.
GATHER_PACK_PENALTY = 0.5
#: Device CRS sweep: bandwidth-bound roofline traffic per nonzero.
SPMV_GPU_BYTES_PER_NNZ = 20.0
#: Achieved fraction of device bandwidth for the (regular) local sweep.
SPMV_GPU_MEM_EFFICIENCY = 0.55
#: Remote-rows kernel: scattered x reads land far below streaming rate.
SPMV_GPU_REMOTE_EFFICIENCY = 0.35
#: Device matrix bytes per nonzero (8 B value + 4 B column index).
SPMV_MATRIX_BYTES_PER_NNZ = 12.0


def gather_tag(a: int, b: int, ntasks: int) -> int:
    """Symmetric tag of the (a, b) gather pair (same for both directions).

    Symmetry is what lets the mirror backend pair the representative
    rank's receive from ``p`` with its own send to ``p``; the full
    backend disambiguates direction by ``(src, dst)``.
    """
    lo, hi = (a, b) if a <= b else (b, a)
    return SPMV_TAG_BASE + lo * ntasks + hi


# -- counter-based pattern draws ------------------------------------------

_U = np.uint64
_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer (wrapping uint64 arithmetic).

    Works in place: callers pass a freshly computed counter array.
    """
    z ^= z >> _U(30)
    z *= _U(0xBF58476D1CE4E5B9)
    z ^= z >> _U(27)
    z *= _U(0x94D049BB133111EB)
    z ^= z >> _U(31)
    return z


def _stream_base(pseed: int, stream: int) -> np.uint64:
    """Per-stream base counter (python-int math: no uint64 scalar overflow)."""
    v = (pseed * 0x9E3779B97F4A7C15 + stream * 0xBF58476D1CE4E5B9) & _MASK64
    return _U(v)


def _extra_cols(rows: int, extras: int, pseed: int, lo: int, hi: int) -> np.ndarray:
    """Random extra columns of rows ``[lo, hi)``: shape ``(hi-lo, extras)``."""
    n = max(0, hi - lo)
    if extras == 0 or n == 0:
        return np.empty((n, 0), dtype=np.int64)
    i = np.arange(lo, hi, dtype=np.uint64)[:, None]
    j = np.arange(extras, dtype=np.uint64)[None, :]
    z = _mix64(
        _stream_base(pseed, 1)
        ^ (i * _U(0xA24BAED4963EE407))
        ^ (j * _U(0x9FB21C651E98DF25))
    )
    z %= _U(rows)
    return z.view(np.int64)  # every value is < rows


def _unit_floats(base: np.uint64, idx: np.ndarray) -> np.ndarray:
    """Deterministic floats in [0, 1) indexed by ``idx`` (uint64 counters)."""
    z = _mix64(base ^ (idx.astype(np.uint64) * _U(0xD6E8FEB86659FD93)))
    return z.astype(np.float64) / 2.0**64


def initial_x(pseed: int, lo: int, hi: int) -> np.ndarray:
    """The global initial vector restricted to rows ``[lo, hi)``."""
    return _unit_floats(_stream_base(pseed, 2), np.arange(lo, hi, dtype=np.int64))


def _sorted_unique(a: np.ndarray, span: int) -> np.ndarray:
    """Sorted distinct values of an int array with values in ``[0, span)``.

    Many values over a small span: an occupancy bitmap (``np.flatnonzero``
    returns its hits sorted). Few values over a wide span: one sort plus
    an adjacent-difference mask (NumPy 2's hash-based ``np.unique`` is
    far slower on these sizes). Both give the same array; the bitmap wins
    once there is about one value per eight slots.
    """
    if 8 * len(a) >= span:
        seen = np.zeros(span, dtype=bool)
        seen[a] = True
        return np.flatnonzero(seen)
    a = np.sort(a)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


#: Rows drawn per block when a table grows (bounds the temporaries).
_DRAW_BLOCK_ROWS = 1 << 16


class _ExtrasTable:
    """The random extra columns of one ``(rows, extras, pseed)`` pattern,
    each row drawn once while the table is kept.

    Rows are drawn on demand as a growing prefix ``[0, drawn)``: the
    mirror path only ever asks for node 0's rows, which start at row 0.
    The buffer is reserved for the whole matrix but untouched pages cost
    no memory, so a table holds at most ``rows * extras * 8`` bytes, and
    only once some run asked for the last row block. Views are read-only:
    every run and every task count of the pattern shares them.
    """

    def __init__(self, rows: int, extras: int, pseed: int):
        self.rows, self.extras, self.pseed = rows, extras, pseed
        self._cols = np.empty((rows, extras), dtype=np.int64)
        self._drawn = 0

    def cols(self, lo: int, hi: int) -> np.ndarray:
        """Extra columns of rows ``[lo, hi)``: shape ``(hi-lo, extras)``."""
        drawn = self._drawn
        while drawn < hi:
            end = min(hi, drawn + _DRAW_BLOCK_ROWS)
            self._cols[drawn:end] = _extra_cols(
                self.rows, self.extras, self.pseed, drawn, end
            )
            drawn = self._drawn = end
        view = self._cols[lo:hi]
        view.flags.writeable = False
        return view


@lru_cache(maxsize=2)
def _extras_table(rows: int, extras: int, pseed: int) -> _ExtrasTable:
    return _ExtrasTable(rows, extras, pseed)


# -- the problem -----------------------------------------------------------

@dataclass(frozen=True)
class SpmvCoupling:
    """One rank's column coupling: what it computes and what it gathers."""

    rank: int
    row0: int
    nrows: int
    #: stored nonzeros of this row block (duplicates included).
    nnz: int
    #: nonzeros with a locally owned column (the *local matrix part* of
    #: Schubert et al. SS4.2 — computable before the gather lands).
    nnz_interior: int
    #: nonzeros whose column a peer owns (the *non-local part*, swept
    #: only after the gathered x entries arrive).
    nnz_boundary: int
    #: peer rank -> sorted unique remote columns needed from that peer.
    gather_cols: Dict[int, np.ndarray] = field(repr=False)

    @property
    def peers(self) -> List[int]:
        return sorted(self.gather_cols)

    def gather_bytes(self, peer: int) -> int:
        return 8 * len(self.gather_cols[peer])

    @property
    def total_gather_bytes(self) -> int:
        return sum(8 * len(c) for c in self.gather_cols.values())


class SpmvProblem:
    """One matrix pattern + row partition (pure function of its arguments)."""

    def __init__(self, rows: int, band: int, extras: int, pseed: int, ntasks: int):
        self.rows = rows
        self.band = band
        self.extras = extras
        self.pseed = pseed
        self.ntasks = ntasks
        base, extra = divmod(rows, ntasks)
        sizes = base + (np.arange(ntasks) < extra).astype(np.int64)
        self._starts = np.zeros(ntasks, dtype=np.int64)
        np.cumsum(sizes[:-1], out=self._starts[1:])
        self._coupling: Dict[int, SpmvCoupling] = {}
        self._representative: Dict[int, int] = {}
        #: x-update scale keeping iterate magnitudes O(1): row sums are
        #: ~(2*band+1+extras) values of magnitude <= 1.
        self.x_scale = 1.0 / (2 * band + 1 + extras)

    @property
    def key(self) -> Tuple[int, int, int, int, int]:
        """``(rows, band, extras, pseed, ntasks)``: what the problem is a
        pure function of."""
        return (self.rows, self.band, self.extras, self.pseed, self.ntasks)

    def block(self, rank: int) -> Tuple[int, int]:
        """(first row, row count) of ``rank`` (paper-style balanced split)."""
        return block_range(self.rows, self.ntasks, rank)

    def owner_of(self, cols: np.ndarray) -> np.ndarray:
        """Owning rank of each global column index."""
        return np.searchsorted(self._starts, cols, side="right") - 1

    @property
    def nnz_total(self) -> int:
        """Stored nonzeros of the whole matrix (closed form)."""
        b = min(self.band, self.rows - 1)
        return self.rows * (2 * b + 1) - b * (b + 1) + self.extras * self.rows

    def coupling(self, rank: int) -> SpmvCoupling:
        """Per-rank coupling (memoized; deterministic in ``rank`` alone)."""
        got = self._coupling.get(rank)
        if got is not None:
            return got
        rows, band, extras = self.rows, self.band, self.extras
        row0, nrows = self.block(rank)
        r1 = row0 + nrows
        i = np.arange(row0, r1, dtype=np.int64)
        win_lo = np.maximum(i - band, 0)
        win_hi = np.minimum(i + band, rows - 1)
        band_counts = win_hi - win_lo + 1
        nnz = int(band_counts.sum()) + extras * nrows
        extra = _extras_table(rows, extras, self.pseed).cols(row0, r1).reshape(-1)
        banded_remote = np.concatenate(
            [
                np.arange(max(0, row0 - band), row0, dtype=np.int64),
                np.arange(r1, min(rows, r1 + band), dtype=np.int64),
            ]
        )
        extra_remote = np.compress((extra < row0) | (extra >= r1), extra)
        remote = _sorted_unique(np.concatenate([banded_remote, extra_remote]), rows)
        # Sorted columns have sorted owners: split at the owner changes.
        owners = self.owner_of(remote)
        heads = np.flatnonzero(np.diff(owners, prepend=-1))
        ends = heads[1:].tolist() + [len(remote)]
        gather_cols = {
            p: remote[a:b]
            for p, a, b in zip(owners[heads].tolist(), heads.tolist(), ends)
        }
        # Entry-granular local/non-local split (Schubert's matrix parts):
        # the band's overhang outside [row0, r1) plus the remote extras.
        band_overhang = np.maximum(row0 - win_lo, 0) + np.maximum(
            win_hi - (r1 - 1), 0
        )
        nnz_boundary = int(band_overhang.sum()) + len(extra_remote)
        out = SpmvCoupling(
            rank=rank,
            row0=row0,
            nrows=nrows,
            nnz=nnz,
            nnz_interior=nnz - nnz_boundary,
            nnz_boundary=nnz_boundary,
            gather_cols=gather_cols,
        )
        self._coupling[rank] = out
        return out

    def representative(self, tpn: int) -> int:
        """Node 0's rank gathering the most off-node x entries (memoized).

        With ``tpn`` contiguous ranks per node, node 0 owns rows
        ``[0, split)`` and every column ``>= split`` lives off-node. A
        rank's off-node gather is its band overhang past ``split`` plus
        its distinct extras beyond that overhang, so one pass over node
        0's draws counts all ranks without building their couplings. Ties
        go to the lowest rank; a single node has no off-node traffic.
        """
        got = self._representative.get(tpn)
        if got is not None:
            return got
        rep = 0
        if 1 < tpn < self.ntasks:
            rows, split = self.rows, int(self._starts[tpn])
            bounds = self._starts[:tpn + 1]
            over = np.clip(np.minimum(bounds[1:] + self.band, rows) - split, 0, None)
            row_rank = np.repeat(np.arange(tpn), np.diff(bounds))
            extra = _extras_table(rows, self.extras, self.pseed).cols(0, split)
            # Distinct (rank, column) pairs keyed rank * rows + column;
            # np.compress beats boolean indexing on a random mask.
            far = extra >= (split + over[row_rank])[:, None]
            keys = _sorted_unique(np.compress(
                far.ravel(), (extra + (row_rank * rows)[:, None]).ravel()
            ), tpn * rows)
            per_rank = np.diff(np.searchsorted(keys, np.arange(tpn + 1) * rows))
            rep = int(np.argmax(over + per_rank))
        self._representative[tpn] = rep
        return rep

    def triplets(self, rank: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(local row index, global column, value) of the rank's nonzeros.

        Banded entries first per row (ascending column), then the extras
        in draw order — the storage order the value stream is keyed on,
        so the assembled matrix is identical no matter which rank (or the
        global oracle) builds it.
        """
        rows, band, extras = self.rows, self.band, self.extras
        row0, nrows = self.block(rank)
        r1 = row0 + nrows
        i = np.arange(row0, r1, dtype=np.int64)
        win_lo = np.maximum(i - band, 0)
        win_hi = np.minimum(i + band, rows - 1)
        band_counts = (win_hi - win_lo + 1).astype(np.int64)
        # Banded columns: for each row an arange(win_lo, win_hi+1).
        total_band = int(band_counts.sum())
        steps = np.ones(total_band, dtype=np.int64)
        row_starts = np.zeros(nrows, dtype=np.int64)
        np.cumsum(band_counts[:-1], out=row_starts[1:])
        # At each row start the running column jumps from the previous
        # row's win_hi to this row's win_lo (row 0 starts from 0).
        steps[row_starts] = win_lo - np.concatenate(([0], win_hi[:-1]))
        band_cols = np.cumsum(steps)
        band_rows = np.repeat(np.arange(nrows, dtype=np.int64), band_counts)
        extra = _extras_table(rows, extras, self.pseed).cols(row0, r1)
        extra_rows = np.repeat(np.arange(nrows, dtype=np.int64), extras)
        cols = np.concatenate([band_cols, extra.reshape(-1)])
        rws = np.concatenate([band_rows, extra_rows])
        # Values keyed on (global row, slot index within the row) so the
        # oracle reproduces them independently of the partition.
        slot = np.concatenate(
            [
                band_cols - win_lo[band_rows],
                np.tile(np.arange(extras, dtype=np.int64), nrows)
                + band_counts[extra_rows],
            ]
        )
        key = (rws + row0) * np.int64(2 * band + 1 + extras) + slot
        vals = 2.0 * _unit_floats(_stream_base(self.pseed, 3), key) - 1.0
        return rws, cols, vals


@lru_cache(maxsize=8)
def _problem(rows: int, band: int, extras: int, pseed: int, ntasks: int) -> SpmvProblem:
    return SpmvProblem(rows, band, extras, pseed, ntasks)


class GatherSummary(NamedTuple):
    """What a timed (non-functional) run needs of one rank's coupling."""

    nnz: int
    nnz_interior: int
    nnz_boundary: int
    #: ``(peer, gather_tag, nbytes)`` of each gather, peers ascending.
    recv_plan: Tuple[Tuple[int, int, int], ...]
    recv_bytes: int


def _summarize(coupling: SpmvCoupling, ntasks: int) -> GatherSummary:
    """The :class:`GatherSummary` of one rank's coupling."""
    me = coupling.rank
    plan = tuple(
        (p, gather_tag(me, p, ntasks), coupling.gather_bytes(p))
        for p in coupling.peers
    )
    return GatherSummary(
        coupling.nnz, coupling.nnz_interior, coupling.nnz_boundary, plan,
        sum(n for _, _, n in plan),
    )


@lru_cache(maxsize=256)
def _gather_summary(
    rows: int, band: int, extras: int, pseed: int, ntasks: int, rank: int
) -> GatherSummary:
    """One rank's summary, kept apart from the problem instance, so an
    evicted ``_problem`` entry costs no redraw."""
    problem = _problem(rows, band, extras, pseed, ntasks)
    return _summarize(problem.coupling(rank), ntasks)


@lru_cache(maxsize=256)
def _mirror_pick(
    rows: int, band: int, extras: int, pseed: int, ntasks: int, tpn: int
) -> Tuple[int, Tuple[Tuple[int, bool], ...]]:
    """The representative of a placement and its ``(tag, off-node)`` flags."""
    rep = _problem(rows, band, extras, pseed, ntasks).representative(tpn)
    summary = _gather_summary(rows, band, extras, pseed, ntasks, rep)
    return rep, tuple((tag, p // tpn != 0) for p, tag, _ in summary.recv_plan)


def spmv_params(cfg: RunConfig) -> Tuple[int, int, int, int]:
    """(rows, band, extras, pseed) of a config, defaults applied."""
    given = dict(cfg.workload_params)
    unknown = sorted(set(given) - set(DEFAULT_SPMV_PARAMS))
    if unknown:
        raise ValueError(
            f"unknown spmv workload_params {unknown}; "
            f"known: {sorted(DEFAULT_SPMV_PARAMS)}"
        )
    merged = dict(DEFAULT_SPMV_PARAMS)
    merged.update(given)
    out = []
    for name in ("rows", "band", "extras", "pseed"):
        v = merged[name]
        if v != int(v):
            raise ValueError(f"spmv param {name} must be an integer, got {v!r}")
        out.append(int(v))
    rows, band, extras, pseed = out
    if rows < 1:
        raise ValueError(f"spmv rows must be >= 1, got {rows}")
    if band < 0 or extras < 0:
        raise ValueError("spmv band and extras must be >= 0")
    return rows, band, extras, pseed


def spmv_problem(cfg: RunConfig) -> SpmvProblem:
    """The (memoized) problem instance of one config."""
    rows, band, extras, pseed = spmv_params(cfg)
    if rows < cfg.ntasks:
        raise ValueError(
            f"spmv rows={rows} cannot give {cfg.ntasks} tasks non-empty row blocks"
        )
    return _problem(rows, band, extras, pseed, cfg.ntasks)


# -- partition / per-rank data ---------------------------------------------

@dataclass(frozen=True)
class RowBlock:
    """One rank's contiguous row block."""

    rank: int
    row0: int
    nrows: int

    @property
    def points(self) -> int:
        return self.nrows

    @property
    def offset(self) -> Tuple[int]:
        return (self.row0,)

    @property
    def shape(self) -> Tuple[int]:
        return (self.nrows,)


class SpmvPartition:
    """Row partition handed to the runner (the workload's 'decomposition')."""

    def __init__(self, problem: SpmvProblem):
        self.problem = problem
        self.ntasks = problem.ntasks

    def subdomain(self, rank: int) -> RowBlock:
        if not 0 <= rank < self.ntasks:
            raise ValueError(f"rank {rank} out of range for {self.ntasks} tasks")
        row0, nrows = self.problem.block(rank)
        return RowBlock(rank=rank, row0=row0, nrows=nrows)


class SpmvRankData:
    """One rank's matrix block, vectors and gather plans (or shadow no-ops).

    The communication plan is data, not implementation logic, so all
    three variants share it: ``recv_plan`` lists ``(peer, gather_tag,
    nbytes)`` of the gathers this rank posts and ``send_plan`` the same
    triples of what it serves, with the served column indices in
    ``send_cols`` (``None`` where no payload moves). In mirror mode the
    plans and the nonzero split come from the process-wide
    :class:`GatherSummary` of the rank, and the send plan mirrors the
    receive plan (symmetric sizing, see module doc); in full mode they are
    built per run from the couplings, the send plan as the exact inverse
    map of every peer's gather.
    """

    def __init__(self, cfg: RunConfig, problem: SpmvProblem, block: RowBlock):
        self.cfg = cfg
        self.problem = problem
        self.block = block
        self.functional = cfg.functional
        me, ntasks = block.rank, problem.ntasks
        #: the full coupling (column arrays); only full-network runs read it.
        self.coupling: Optional[SpmvCoupling] = None
        self.send_plan: Sequence[Tuple[int, int, int]]
        self.send_cols: Sequence[Optional[np.ndarray]]
        if cfg.network == "mirror":
            summary = _gather_summary(*problem.key, me)
            self.send_plan = summary.recv_plan
            self.send_cols = (None,) * len(self.send_plan)
        else:
            self.coupling = problem.coupling(me)
            summary = _summarize(self.coupling, ntasks)
            self.send_plan, self.send_cols = [], []
            for p in range(ntasks):
                if p == me:
                    continue
                cols = problem.coupling(p).gather_cols.get(me)
                if cols is not None and len(cols):
                    self.send_plan.append((p, gather_tag(me, p, ntasks), 8 * len(cols)))
                    self.send_cols.append(cols)
        (self.nnz, self.nnz_interior, self.nnz_boundary, self.recv_plan,
         self.recv_bytes) = summary
        self.send_bytes = sum(n for _, _, n in self.send_plan)
        self._remote_cols: Optional[np.ndarray] = None
        if self.functional:
            self._init_functional()

    # -- functional numerics (full backend only) ---------------------------
    def _init_functional(self) -> None:
        pr, blk = self.problem, self.block
        self.x = initial_x(pr.pseed, blk.row0, blk.row0 + blk.nrows)
        self.y = np.zeros(blk.nrows)
        rws, cols, vals = pr.triplets(blk.rank)
        self._rows_idx, self._cols, self._vals = rws, cols, vals
        # Peers are visited in ascending rank order and own disjoint
        # ascending row ranges, so the concatenation is globally sorted.
        peer_cols = [self.coupling.gather_cols[p] for p in self.coupling.peers]
        self._remote_cols = (
            np.concatenate(peer_cols) if peer_cols else np.empty(0, dtype=np.int64)
        )
        self._remote_vals = np.zeros(len(self._remote_cols))
        offs = {}
        off = 0
        for p, cs in zip(self.coupling.peers, peer_cols):
            offs[p] = (off, off + len(cs))
            off += len(cs)
        self._remote_offsets = offs
        # The *functional* pre/post-gather split is row-granular (a row's
        # contributions are never split across the gather), deliberately
        # coarser than the entry-granular split the timing model charges:
        # each y[i] then accumulates in storage order no matter the
        # partition, keeping the assembled iterate bitwise independent of
        # the task count.
        local = (cols >= blk.row0) & (cols < blk.row0 + blk.nrows)
        row_remote = np.zeros(blk.nrows, dtype=bool)
        np.logical_or.at(row_remote, rws, ~local)
        tri_boundary = row_remote[rws]
        self._tri_interior = np.nonzero(~tri_boundary)[0]
        self._tri_boundary = np.nonzero(tri_boundary)[0]

    def pack_for(self, cols: np.ndarray) -> Optional[np.ndarray]:
        """Payload served to a peer: this rank's x entries at ``cols``."""
        if not self.functional:
            return None
        return self.x[cols - self.block.row0].copy()

    def unpack(self, peer: int, payload: Optional[np.ndarray]) -> None:
        """Store a gathered payload into the remote-x buffer."""
        if not self.functional or payload is None:
            return
        lo, hi = self._remote_offsets[peer]
        self._remote_vals[lo:hi] = payload

    def _xval(self, cols: np.ndarray) -> np.ndarray:
        blk = self.block
        out = np.empty(len(cols))
        local = (cols >= blk.row0) & (cols < blk.row0 + blk.nrows)
        out[local] = self.x[cols[local] - blk.row0]
        rem = ~local
        if rem.any():
            idx = np.searchsorted(self._remote_cols, cols[rem])
            out[rem] = self._remote_vals[idx]
        return out

    def _apply(self, tri_idx: np.ndarray) -> None:
        cols = self._cols[tri_idx]
        contrib = self._vals[tri_idx] * self._xval(cols)
        np.add.at(self.y, self._rows_idx[tri_idx], contrib)

    def compute_all(self) -> None:
        if self.functional:
            self._apply(np.arange(len(self._cols)))

    def compute_interior(self) -> None:
        if self.functional:
            self._apply(self._tri_interior)

    def compute_boundary(self) -> None:
        if self.functional:
            self._apply(self._tri_boundary)

    def update_x(self) -> None:
        if self.functional:
            self.x = self.problem.x_scale * self.y
            self.y = np.zeros(self.block.nrows)


# -- shared program pieces --------------------------------------------------

def _post_gather(ctx: RankContext):
    """Post the sweep's gather exchange; returns (recv_reqs, send_reqs)."""
    data: SpmvRankData = ctx.data
    comm = ctx.comm
    recvs = yield from comm.irecv_all(data.recv_plan)
    if data.send_bytes:
        yield ctx.memcpy(data.send_bytes, GATHER_PACK_PENALTY, phase="pack")
    payloads = None
    if data.functional:
        payloads = [data.pack_for(cols) for cols in data.send_cols]
    sends = yield from comm.isend_all(data.send_plan, payloads)
    return recvs, sends


def _complete_gather(ctx: RankContext, recvs, sends):
    """Wait out the gather (receives, then sends); unpack received x entries."""
    data: SpmvRankData = ctx.data
    payloads = yield from ctx.comm.waitall(recvs + sends)
    for req, payload in zip(recvs, payloads):
        data.unpack(req.peer, payload)
    if data.recv_bytes:
        yield ctx.memcpy(data.recv_bytes, GATHER_PACK_PENALTY, phase="unpack")


def _sweep_cost(ctx: RankContext, nnz: int, *, boundary: bool = False,
                phase: str = "compute"):
    """Timed CRS sweep of ``nnz`` stored nonzeros on this task's threads."""
    eff = ctx.node.boundary_loop_efficiency if boundary else 1.0
    return ctx.compute_custom(
        nnz,
        flops_per_point=SPMV_FLOPS_PER_NNZ,
        bytes_per_point=SPMV_BYTES_PER_NNZ,
        efficiency=eff,
        phase=phase,
    )


def _x_update_cost(ctx: RankContext):
    return ctx.compute_custom(
        ctx.data.block.nrows,
        flops_per_point=SPMV_X_FLOPS_PER_ROW,
        bytes_per_point=SPMV_X_BYTES_PER_ROW,
        phase="copy",
    )


def spmv_kernel_seconds(spec: GpuSpec, nnz: int, efficiency: float) -> float:
    """Device CRS sweep duration (bandwidth-bound roofline)."""
    if nnz <= 0:
        return 0.0
    return nnz * SPMV_GPU_BYTES_PER_NNZ / (spec.mem_bandwidth_gbs * 1e9 * efficiency)


def _validate_spmv_axes(impl: Implementation, cfg: RunConfig) -> None:
    """Reject stencil-only tuning axes (they would split cache keys)."""
    if cfg.box_thickness != 1:
        raise ValueError(
            f"{impl.key}: spmv has no box_thickness axis (got {cfg.box_thickness})"
        )
    if cfg.block is not None:
        raise ValueError(f"{impl.key}: spmv has no GPU thread-block axis")


class SpmvBulk(Implementation):
    """Vector mode: complete every gather, then one full sweep."""

    key = "bulk"
    title = "SpMV vector mode (gather, then sweep)"
    section = "Schubert SS4.1"
    uses_mpi = True

    def validate(self, cfg: RunConfig) -> None:
        super().validate(cfg)
        _validate_spmv_axes(self, cfg)

    def step(self, ctx: RankContext, index: int):
        data: SpmvRankData = ctx.data
        recvs, sends = yield from _post_gather(ctx)
        yield from _complete_gather(ctx, recvs, sends)
        yield _sweep_cost(ctx, data.nnz)
        data.compute_all()
        yield _x_update_cost(ctx)
        data.update_x()


class SpmvNonblocking(Implementation):
    """Naive overlap: sweep local-only rows while the gathers fly."""

    key = "nonblocking"
    title = "SpMV naive overlap (local rows under the gather)"
    section = "Schubert SS4.2"
    uses_mpi = True

    def validate(self, cfg: RunConfig) -> None:
        super().validate(cfg)
        _validate_spmv_axes(self, cfg)

    def step(self, ctx: RankContext, index: int):
        data: SpmvRankData = ctx.data
        recvs, sends = yield from _post_gather(ctx)
        yield _sweep_cost(ctx, data.nnz_interior)
        data.compute_interior()
        yield from _complete_gather(ctx, recvs, sends)
        yield _sweep_cost(ctx, data.nnz_boundary, boundary=True,
                          phase="boundary")
        data.compute_boundary()
        yield _x_update_cost(ctx)
        data.update_x()


class SpmvHybridOverlap(Implementation):
    """GPU task mode: local kernel under the gather, remote kernel after.

    Maps the kernel-triggered overlap of Choi et al. onto the stream /
    copy-engine machinery: stream 1 runs the local-rows kernel the moment
    the step starts; the host gather runs underneath it; the received x
    entries ride stream 2's copy engine (skipped under GPUDirect, where
    the NIC writes device memory directly) ahead of the remote-rows
    kernel; the x-update and next-sweep send staging close the step.
    """

    key = "hybrid_overlap"
    title = "SpMV GPU task mode (kernel-triggered overlap)"
    section = "Choi SS3"
    uses_mpi = True
    uses_gpu = True

    def validate(self, cfg: RunConfig) -> None:
        super().validate(cfg)
        _validate_spmv_axes(self, cfg)
        if cfg.functional:
            raise ValueError(
                f"{self.key}: spmv functional verification runs on the CPU "
                f"variants (bulk, nonblocking)"
            )

    def setup(self, ctx: RankContext):
        data: SpmvRankData = ctx.data
        gpu = ctx.gpu
        st = ctx.state
        st["s1"] = gpu.stream("s1")
        st["s2"] = gpu.stream("s2")
        matrix_bytes = int(SPMV_MATRIX_BYTES_PER_NNZ * data.nnz)
        x_bytes = 8 * data.block.nrows
        yield ctx.launch_cost(1)
        ev = ctx.h2d(st["s1"], matrix_bytes + x_bytes)
        yield ev
        yield gpu.synchronize()

    def step(self, ctx: RankContext, index: int):
        data: SpmvRankData = ctx.data
        gpu = ctx.gpu
        spec = gpu.spec
        s1, s2 = ctx.state["s1"], ctx.state["s2"]

        # 1) Local-rows kernel to stream 1: no gather dependency.
        yield ctx.launch_cost(1)
        t_local = spmv_kernel_seconds(
            spec, data.nnz_interior, SPMV_GPU_MEM_EFFICIENCY
        )
        local_ev = gpu.launch_kernel(s1, t_local * ctx.gpu_share, None, "spmv-local")

        # 2) Host gather, overlapped with the local kernel.
        recvs, sends = yield from _post_gather(ctx)
        yield from _complete_gather(ctx, recvs, sends)

        # 3) Ship gathered x entries to the device (stream 2 serializes
        #    the remote-rows kernel behind the copy); GPUDirect receives
        #    land in device memory already.
        yield ctx.launch_cost(2)
        if data.recv_bytes and not ctx.gpudirect:
            ctx.h2d(s2, data.recv_bytes)
        t_remote = spmv_kernel_seconds(
            spec, data.nnz_boundary, SPMV_GPU_REMOTE_EFFICIENCY
        )
        remote_ev = gpu.launch_kernel(s2, t_remote * ctx.gpu_share, None, "spmv-remote")
        if not local_ev.processed:
            yield local_ev
        if not remote_ev.processed:
            yield remote_ev

        # 4) Device x-update, then stage the next sweep's send entries
        #    back to the host (GPUDirect sends straight from the device).
        yield ctx.launch_cost(1)
        t_upd = data.block.nrows * SPMV_X_BYTES_PER_ROW / (
            spec.mem_bandwidth_gbs * 1e9
        )
        upd_ev = gpu.launch_kernel(s1, t_upd * ctx.gpu_share, None, "x-update")
        if data.send_bytes and not ctx.gpudirect:
            d2h_ev = ctx.d2h(s1, data.send_bytes)
            yield d2h_ev
        elif not upd_ev.processed:
            yield upd_ev

    def drain(self, ctx: RankContext):
        data: SpmvRankData = ctx.data
        yield ctx.launch_cost(1)
        ev = ctx.d2h(ctx.state["s1"], 8 * data.block.nrows)
        yield ev


#: key -> frozen singleton (the spmv level of the two-level registry).
SPMV_IMPLEMENTATIONS: Dict[str, Implementation] = freeze_implementations(
    SpmvBulk(), SpmvNonblocking(), SpmvHybridOverlap()
)


class SpmvWorkload(Workload):
    """Hybrid SpMV with explicit comm overlap (the first non-stencil workload)."""

    key = "spmv"
    title = "Hybrid SpMV with explicit comm overlap (Schubert et al.)"
    cpu_keys = ("bulk", "nonblocking")
    gpu_keys = ("hybrid_overlap",)

    @property
    def implementations(self) -> Dict[str, Implementation]:
        return SPMV_IMPLEMENTATIONS

    def validate(self, cfg: RunConfig) -> None:
        spmv_problem(cfg)  # raises on bad/unknown params or rows < ntasks

    def decompose(self, cfg: RunConfig) -> SpmvPartition:
        return SpmvPartition(spmv_problem(cfg))

    def make_data(self, cfg: RunConfig, sub: RowBlock) -> SpmvRankData:
        return SpmvRankData(cfg, spmv_problem(cfg), sub)

    def mirror_profile(self, cfg: RunConfig, decomp: SpmvPartition) -> MirrorProfile:
        problem = decomp.problem
        tpn = min(cfg.tasks_per_node, problem.ntasks)
        rep, offnode = _mirror_pick(*problem.key, tpn)
        # No per-tag NIC share: the whole gather phase is one burst in
        # which every node-resident rank drives the NIC, which is exactly
        # the MirrorProfile fallback (max(1, tasks_per_node)).
        return MirrorProfile(
            interconnect=cfg.machine.interconnect,
            node=cfg.machine.node,
            nranks=problem.ntasks,
            tasks_per_node=tpn,
            offnode_by_tag=dict(offnode),
            nic_share_by_tag={},
            representative_rank=rep,
        )

    def total_flops(self, cfg: RunConfig) -> float:
        return SPMV_FLOPS_PER_NNZ * spmv_problem(cfg).nnz_total * cfg.steps

    def rank_group_name(self, sub: RowBlock) -> str:
        return f"rank {sub.rank} rows[{sub.row0}:{sub.row0 + sub.nrows}]"

    def finalize_functional(
        self, cfg: RunConfig, contexts: List, result: RunResult
    ) -> None:
        problem = spmv_problem(cfg)
        # Independent oracle: assemble the *global* matrix through the
        # same deterministic generators and iterate it with dense numpy
        # gathers (no partition, no exchange, no remote-x bookkeeping).
        one = SpmvProblem(
            problem.rows, problem.band, problem.extras, problem.pseed, 1
        )
        rws, cols, vals = one.triplets(0)
        x = initial_x(problem.pseed, 0, problem.rows)
        for _ in range(cfg.steps):
            y = np.zeros(problem.rows)
            np.add.at(y, rws, vals * x[cols])
            x = problem.x_scale * y
        assembled = np.concatenate(
            [ctx.data.x for ctx in sorted(contexts, key=lambda c: c.sub.rank)]
        )
        result.global_field = assembled
        result.norms = error_norms(assembled, x)
