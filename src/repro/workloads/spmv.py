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

No table of the pattern is kept. A rank's coupling, its gather summary
and the mirror representative come from one streamed scan: the band's
nonzeros and overhang in closed form, the extras drawn in fixed blocks of
``_SCAN_BLOCK_ROWS`` rows and deduplicated in an occupancy bitmap over
the columns. Set-up memory is then a bitmap plus one block, whatever the
problem size.

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


def _extra_draws(rows: int, extras: int, pseed: int, lo: int, hi: int) -> np.ndarray:
    """Random extra columns of rows ``[lo, hi)``, draw-major: element
    ``[j, i]`` is draw ``j`` of row ``lo + i``, shape ``(extras, hi-lo)``.

    Draw-major keeps every ufunc's inner loop as long as the row range.
    A power-of-two ``rows`` takes the remainder as a bit mask, the same
    value as ``%`` without the 64-bit division.
    """
    i = np.arange(lo, max(lo, hi), dtype=np.uint64)
    i *= _U(0xA24BAED4963EE407)
    i ^= _stream_base(pseed, 1)
    j = np.arange(extras, dtype=np.uint64)
    j *= _U(0x9FB21C651E98DF25)
    z = _mix64(j[:, None] ^ i[None, :])
    if rows & (rows - 1):
        z %= _U(rows)
    else:
        z &= _U(rows - 1)
    return z.view(np.int64)  # every value is < rows


def _extra_cols(rows: int, extras: int, pseed: int, lo: int, hi: int) -> np.ndarray:
    """Random extra columns of rows ``[lo, hi)``: shape ``(hi-lo, extras)``,
    each row's draws in draw order (a view of :func:`_extra_draws`)."""
    return _extra_draws(rows, extras, pseed, lo, hi).T


def _unit_floats(base: np.uint64, idx: np.ndarray) -> np.ndarray:
    """Deterministic floats in [0, 1) indexed by ``idx`` (uint64 counters)."""
    z = _mix64(base ^ (idx.astype(np.uint64) * _U(0xD6E8FEB86659FD93)))
    return z.astype(np.float64) / 2.0**64


def initial_x(pseed: int, lo: int, hi: int) -> np.ndarray:
    """The global initial vector restricted to rows ``[lo, hi)``."""
    return _unit_floats(_stream_base(pseed, 2), np.arange(lo, hi, dtype=np.int64))


# -- the streamed pattern scan ----------------------------------------------

#: Rows per block of the pattern scan: a block's draws and masks are all
#: the scan holds at once, whatever the problem size.
_SCAN_BLOCK_ROWS = 8192


def _extra_blocks(rows: int, extras: int, pseed: int, lo: int, hi: int):
    """The random extra columns of rows ``[lo, hi)``, one flat array per
    block of at most ``_SCAN_BLOCK_ROWS`` rows (draw-major within a block:
    a scan only marks and counts them)."""
    if extras == 0:
        return
    for a in range(lo, hi, _SCAN_BLOCK_ROWS):
        b = min(hi, a + _SCAN_BLOCK_ROWS)
        yield _extra_draws(rows, extras, pseed, a, b).reshape(-1)


def _ramp_sum(n: int, top: int, cap: int) -> int:
    """``sum(min(cap, max(0, top - k)) for k in range(n))`` in closed form."""
    capped = min(n, max(0, top - cap + 1))  # the terms at the cap
    end = min(n, max(0, top))  # the terms past `end` are zero
    m = end - capped
    return cap * capped + (m * (2 * top - capped - end + 1) // 2 if m > 0 else 0)


def _band_terms(rows: int, band: int, row0: int, r1: int) -> Tuple[int, int]:
    """(banded nonzeros, band overhang) of rows ``[row0, r1)``, closed form.

    Row ``i`` stores columns ``[max(i-band, 0), min(i+band, rows-1)]``;
    its overhang is the part of that window outside ``[row0, r1)``. The
    window clipped to the block is a square band matrix of ``r1 - row0``
    rows (the ``nnz_total`` count); the overhang on each side is a ramp
    falling by one column per row away from the edge, capped by the
    ``row0`` columns left and the ``rows - r1`` right of the block.
    """
    n = r1 - row0
    if n <= 0:
        return 0, 0
    b = min(band, n - 1)
    overhang = _ramp_sum(n, band, row0) + _ramp_sum(n, band, rows - r1)
    return n * (2 * b + 1) - b * (b + 1) + overhang, overhang


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


class SpmvProblem:
    """One matrix pattern + row partition (pure function of its arguments).

    It holds the row starts, plus the couplings a full-backend run asked
    for and the representative of each placement. Nothing else of the
    pattern is kept: every rank's extras are redrawn from the counter
    generator when a scan, a coupling or the triplets need them, a block
    of ``_SCAN_BLOCK_ROWS`` rows at a time in the scans, so set-up memory
    does not follow the problem size.
    """

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

    def _scan(self, rank: int) -> Tuple[int, int, np.ndarray]:
        """(nnz, nnz_boundary, remote-column bitmap) of one rank's rows.

        The entry-granular local/non-local split (Schubert's matrix
        parts): the band's overhang outside ``[row0, r1)``, counted in
        closed form, plus the remote extras, duplicates included. The
        extras are drawn block by block and marked in one occupancy
        bitmap over the columns; clearing the rank's own rows and marking
        the band's overhang leaves its deduped gather. The scan never
        holds more than one block's draws. A rank owning every row has no
        remote column and draws nothing.
        """
        rows, band = self.rows, self.band
        row0, nrows = self.block(rank)
        r1 = row0 + nrows
        band_nnz, nnz_boundary = _band_terms(rows, band, row0, r1)
        seen = np.zeros(rows, dtype=bool)
        if nrows < rows:
            for extra in _extra_blocks(rows, self.extras, self.pseed, row0, r1):
                seen[extra] = True
                local = np.count_nonzero(extra >= row0) - np.count_nonzero(extra >= r1)
                nnz_boundary += len(extra) - int(local)
            seen[row0:r1] = False
        seen[max(0, row0 - band):row0] = True
        seen[r1:r1 + band] = True
        return band_nnz + self.extras * nrows, nnz_boundary, seen

    def coupling(self, rank: int) -> SpmvCoupling:
        """Per-rank coupling (memoized; deterministic in ``rank`` alone)."""
        got = self._coupling.get(rank)
        if got is not None:
            return got
        nnz, nnz_boundary, seen = self._scan(rank)
        remote = np.flatnonzero(seen)
        # Sorted columns have sorted owners: split at the owner changes.
        owners = self.owner_of(remote)
        heads = np.flatnonzero(np.diff(owners, prepend=-1))
        ends = heads[1:].tolist() + [len(remote)]
        gather_cols = {
            p: remote[a:b]
            for p, a, b in zip(owners[heads].tolist(), heads.tolist(), ends)
        }
        row0, nrows = self.block(rank)
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
        its distinct extras beyond that overhang. The ranks are counted
        one at a time: each marks its extras, streamed in scan blocks, in
        one bitmap over the columns and counts the marks past its
        overhang. No coupling is built and no more than one block of
        draws is held. Ties go to the lowest rank; a single node has no
        off-node traffic.
        """
        got = self._representative.get(tpn)
        if got is not None:
            return got
        rep = 0
        if 1 < tpn < self.ntasks:
            rows, split = self.rows, int(self._starts[tpn])
            bounds = self._starts[:tpn + 1].tolist()
            seen = np.zeros(rows, dtype=bool)
            best = -1
            for r in range(tpn):
                over = max(0, min(bounds[r + 1] + self.band, rows) - split)
                seen[:] = False
                for extra in _extra_blocks(rows, self.extras, self.pseed,
                                           bounds[r], bounds[r + 1]):
                    seen[extra] = True
                count = over + int(np.count_nonzero(seen[split + over:]))
                if count > best:
                    rep, best = r, count
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
        extra = _extra_cols(rows, extras, self.pseed, row0, r1)
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


def _owner_counts(seen: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Marked columns of ``seen`` in each owner's block ``[starts[p],
    starts[p+1])``.

    Counted in scan blocks of columns: each block's hits locate the owner
    starts that fall in it. ``np.add.reduceat`` would first cast the
    whole bitmap to ``int64``, eight bytes per column.
    """
    below = np.empty(len(starts), dtype=np.int64)  # marks left of each start
    done = j = 0
    for a in range(0, len(seen), _SCAN_BLOCK_ROWS):
        hits = np.flatnonzero(seen[a:a + _SCAN_BLOCK_ROWS])
        k = int(np.searchsorted(starts, a + _SCAN_BLOCK_ROWS))
        below[j:k] = done + np.searchsorted(hits, starts[j:k] - a)
        done += len(hits)
        j = k
    return np.diff(below, append=done)


def _summary(rank: int, ntasks: int, nnz: int, nnz_boundary: int,
             counts) -> GatherSummary:
    """A :class:`GatherSummary` from ``(peer, columns)`` counts, peers ascending."""
    plan = tuple((p, gather_tag(rank, p, ntasks), 8 * n) for p, n in counts)
    return GatherSummary(
        nnz, nnz - nnz_boundary, nnz_boundary, plan, sum(n for _, _, n in plan)
    )


def _summarize(coupling: SpmvCoupling, ntasks: int) -> GatherSummary:
    """The :class:`GatherSummary` of one rank's coupling."""
    counts = ((p, len(coupling.gather_cols[p])) for p in coupling.peers)
    return _summary(coupling.rank, ntasks, coupling.nnz, coupling.nnz_boundary,
                    counts)


@lru_cache(maxsize=256)
def _gather_summary(
    rows: int, band: int, extras: int, pseed: int, ntasks: int, rank: int
) -> GatherSummary:
    """One rank's summary, counted from its scan without building its
    coupling. Kept apart from the problem instance, so a mirror run holds
    no column array and an evicted ``_problem`` entry costs no rescan."""
    problem = _problem(rows, band, extras, pseed, ntasks)
    nnz, nnz_boundary, seen = problem._scan(rank)
    per_owner = _owner_counts(seen, problem._starts)
    peers = np.flatnonzero(per_owner)
    return _summary(rank, ntasks, nnz, nnz_boundary,
                    zip(peers.tolist(), per_owner[peers].tolist()))


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
