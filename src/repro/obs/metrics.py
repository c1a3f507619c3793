"""Derived overlap metrics: occupancy, overlap matrix, hidden-comm fraction,
and a critical-path decomposition of the traced window.

These turn a raw timeline into the numbers the paper argues with:

* **occupancy** — fraction of the measured window each lane is busy
  (Fig. 3–12 are, at heart, occupancy statements: "the GPU never idles");
* **overlap matrix** — pairwise seconds during which two resources are
  simultaneously busy;
* **overlap fraction** — of all communication time (MPI wire + PCIe +
  async copy engines), how much is *hidden* behind compute (host or GPU
  kernels)? §V-E's 82-vs-24 GF ordering on Yona is exactly this number:
  ``hybrid_overlap`` hides nearly everything, ``gpu_bulk`` hides ~0;
* **critical path** — a decomposition of the measured window into which
  resource class was active (compute / communication-only / idle), i.e.
  where the wall-clock actually went.

All metrics are computed over the *measured window* ``[t0, t1]`` recorded
in ``tracer.meta`` (falling back to the full span), so untimed setup/drain
work does not dilute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer, intervals_intersection

__all__ = [
    "COMPUTE_LANES",
    "COMM_LANES",
    "OverlapMetrics",
    "lane_occupancy",
    "overlap_matrix",
    "overlap_fraction",
    "critical_path",
    "compute_metrics",
]

#: Resources that count as computation when deciding whether communication
#: is hidden. ("host" covers CPU sweeps/packs; "gpu-kernel" device sweeps.)
COMPUTE_LANES: Tuple[str, ...] = ("host", "gpu-kernel")

#: Resources that count as communication/data movement.
#: "mpi" = wire time of MPI messages; "gpu-copy" = async copy engines;
#: "pcie" = blocking pageable copies (§IV-F's synchronous path);
#: "progress" = background wire time advanced by a progress thread or NIC
#: offload engine (non-manual-poll progress models); "nvlink" = GPU
#: peer-to-peer copies over the node's NVLink-class fabric.
COMM_LANES: Tuple[str, ...] = ("mpi", "gpu-copy", "pcie", "progress", "nvlink")


def _clip(
    ivals: List[Tuple[float, float]], t0: float, t1: float
) -> List[Tuple[float, float]]:
    """Restrict merged intervals to the window [t0, t1]."""
    out = []
    for s, e in ivals:
        s, e = max(s, t0), min(e, t1)
        if e > s:
            out.append((s, e))
    return out


def _union(lists: List[List[Tuple[float, float]]]) -> List[Tuple[float, float]]:
    """Merge several sorted merged interval lists into one."""
    ivals = sorted(iv for lst in lists for iv in lst)
    out: List[Tuple[float, float]] = []
    for s, e in ivals:
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return out


def _window(tracer: Tracer) -> Tuple[float, float]:
    t0 = tracer.meta.get("t0")
    t1 = tracer.meta.get("t1")
    if t0 is None or t1 is None or t1 <= t0:
        return tracer.span()
    return float(t0), float(t1)


def lane_occupancy(tracer: Tracer) -> Dict[str, float]:
    """Busy fraction of the measured window, per resource lane.

    A resource busy on several groups (e.g. "host" on four ranks) is
    merged: the occupancy answers "was *anything* of this kind running?",
    which is the overlap question. Per-group occupancy is available through
    :meth:`Tracer.busy_time` with ``group=``.
    """
    t0, t1 = _window(tracer)
    length = t1 - t0
    if length <= 0:
        return {}
    out: Dict[str, float] = {}
    for lane in dict.fromkeys(lane for _, lane in tracer.lane_keys()):
        busy = sum(e - s for s, e in _clip(tracer.merged_intervals(lane), t0, t1))
        out[lane] = busy / length
    return out


def overlap_matrix(tracer: Tracer) -> Dict[Tuple[str, str], float]:
    """Pairwise seconds of simultaneous busyness inside the window.

    Keys are unordered resource pairs stored as sorted tuples; the diagonal
    carries each lane's own busy time.
    """
    t0, t1 = _window(tracer)
    lanes = list(dict.fromkeys(lane for _, lane in tracer.lane_keys()))
    clipped = {l: _clip(tracer.merged_intervals(l), t0, t1) for l in lanes}
    out: Dict[Tuple[str, str], float] = {}
    for i, a in enumerate(lanes):
        for b in lanes[i:]:
            if a == b:
                out[(a, a)] = sum(e - s for s, e in clipped[a])
            else:
                key = tuple(sorted((a, b)))
                out[key] = intervals_intersection(clipped[a], clipped[b])
    return out


def overlap_fraction(
    tracer: Tracer,
    comm_lanes: Tuple[str, ...] = COMM_LANES,
    compute_lanes: Tuple[str, ...] = COMPUTE_LANES,
) -> float:
    """Fraction of communication time hidden behind computation.

    ``hidden / total`` where *total* is the union busy time of the comm
    lanes inside the measured window and *hidden* is the part of it during
    which at least one compute lane is also busy. Returns 0.0 when there is
    no communication at all (nothing to hide — the resident implementation).
    """
    t0, t1 = _window(tracer)
    comm = _union([_clip(tracer.merged_intervals(l), t0, t1) for l in comm_lanes])
    total = sum(e - s for s, e in comm)
    if total <= 0:
        return 0.0
    compute = _union(
        [_clip(tracer.merged_intervals(l), t0, t1) for l in compute_lanes]
    )
    hidden = intervals_intersection(comm, compute)
    return hidden / total


def critical_path(
    tracer: Tracer,
    compute_lanes: Tuple[str, ...] = COMPUTE_LANES,
    comm_lanes: Tuple[str, ...] = COMM_LANES,
) -> Dict[str, float]:
    """Decompose the measured window into compute / comm-only / idle seconds.

    Each instant is attributed to exactly one class — ``compute`` when any
    compute lane is busy (communication underneath is *hidden*), else
    ``comm`` when any comm lane is busy (*exposed* communication), else
    ``idle`` (latency, barriers, launch gaps). The three terms sum to the
    window length, so this is the answer to "where did the step time go?".
    """
    t0, t1 = _window(tracer)
    length = max(0.0, t1 - t0)
    compute = _union(
        [_clip(tracer.merged_intervals(l), t0, t1) for l in compute_lanes]
    )
    comm = _union([_clip(tracer.merged_intervals(l), t0, t1) for l in comm_lanes])
    compute_s = sum(e - s for s, e in compute)
    comm_exposed = sum(e - s for s, e in comm) - intervals_intersection(comm, compute)
    idle = max(0.0, length - compute_s - comm_exposed)
    return {
        "window_s": length,
        "compute_s": compute_s,
        "exposed_comm_s": comm_exposed,
        "idle_s": idle,
    }


@dataclass
class OverlapMetrics:
    """Derived overlap statistics of one traced run."""

    #: resource lane -> busy fraction of the measured window.
    occupancy: Dict[str, float] = field(default_factory=dict)
    #: sorted resource pair -> simultaneous busy seconds.
    overlap_s: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: fraction of comm time hidden behind compute (the §V-E number).
    overlap_fraction: float = 0.0
    #: compute / exposed-comm / idle decomposition of the window.
    critical_path: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering (pair keys joined with '+')."""
        return {
            "occupancy": dict(self.occupancy),
            "overlap_s": {"+".join(k): v for k, v in self.overlap_s.items()},
            "overlap_fraction": self.overlap_fraction,
            "critical_path": dict(self.critical_path),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "OverlapMetrics":
        """Exact inverse of :meth:`to_dict`.

        No lane name contains ``'+'``, so each joined key splits back
        into its pair; a key that does not is a ``ValueError``.
        """
        pairs = {}
        for key, seconds in doc["overlap_s"].items():
            a, b = key.split("+")
            pairs[(a, b)] = seconds
        return cls(
            occupancy=dict(doc["occupancy"]),
            overlap_s=pairs,
            overlap_fraction=doc["overlap_fraction"],
            critical_path=dict(doc["critical_path"]),
        )

    def summary(self) -> str:
        """Short human-readable rendering."""
        occ = "  ".join(f"{k}={v:.0%}" for k, v in sorted(self.occupancy.items()))
        cp = self.critical_path
        return (
            f"overlap fraction {self.overlap_fraction:.1%} "
            f"(compute {cp.get('compute_s', 0) * 1e3:.2f} ms, exposed comm "
            f"{cp.get('exposed_comm_s', 0) * 1e3:.2f} ms, idle "
            f"{cp.get('idle_s', 0) * 1e3:.2f} ms)\n  occupancy: {occ}"
        )


def compute_metrics(tracer: Tracer) -> OverlapMetrics:
    """All derived metrics of one trace (attached to ``RunResult.overlap``)."""
    return OverlapMetrics(
        occupancy=lane_occupancy(tracer),
        overlap_s=overlap_matrix(tracer),
        overlap_fraction=overlap_fraction(tracer),
        critical_path=critical_path(tracer),
    )
