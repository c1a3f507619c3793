"""Structured execution tracing: lanes keyed by ``(group, resource)``.

The tracer is the substrate of the observability subsystem (the paper's
entire subject is *which activities actually overlap* — CPU compute, GPU
kernels, MPI messages, PCIe copies). Every timed activity in the simulator
records an interval on a **lane**: the pair of a *group* (an MPI rank, a
GPU device, or a shared link — see the group-id conventions below) and a
*resource* string (``"host"``, ``"gpu-kernel"``, ``"mpi"``, ``"pcie"``,
...). Counters record scalar time series (e.g. in-flight transfers), and
instantaneous marks (zero-length intervals) capture protocol actions such
as ``isend``/``irecv`` posts for the invariant checker.

Group-id conventions
--------------------
* ``0 <= g < GPU_GROUP_BASE`` — MPI rank ``g``;
* ``GPU_GROUP_BASE <= g < LINK_GROUP_BASE`` — GPU device ``g - base``;
* ``g >= LINK_GROUP_BASE`` — a shared link (NIC, PCIe wire, NVLink
  fabric).

Display names for groups are registered with :meth:`Tracer.set_group_name`
and used by the ASCII renderer and the Chrome-trace exporter (where groups
become Perfetto "processes" and resources become "threads").

Tracing is **zero-cost when disabled**: nothing in the simulator allocates
or branches beyond one ``if tracer is not None`` per timed operation, and
recording never changes simulated time (a traced run is bit-identical to
an untraced one — ``tests/obs`` asserts this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "GPU_GROUP_BASE",
    "LINK_GROUP_BASE",
    "TraceEvent",
    "CounterSample",
    "Tracer",
]

#: First group id used for GPU devices (below: MPI ranks).
GPU_GROUP_BASE = 1_000
#: First group id used for shared links (NICs, PCIe wires, NVLink fabrics).
LINK_GROUP_BASE = 2_000


@dataclass(frozen=True)
class TraceEvent:
    """One traced interval on a ``(group, lane)`` timeline.

    ``start == end`` marks an instantaneous event (a protocol action such
    as an ``isend`` post); the invariant checker reads those through
    :attr:`args`.
    """

    lane: str  # resource: "host", "gpu-kernel", "gpu-copy", "mpi", "pcie", ...
    name: str  # activity: "compute", "interior", "h2d", "isend", ...
    start: float
    end: float
    group: int = 0  # MPI rank / GPU device / link (see module docstring)
    cat: str = ""  # Chrome-trace category ("compute", "comm", "copy", ...)
    args: Optional[Dict[str, Any]] = None  # free-form payload (checker input)

    @property
    def duration(self) -> float:
        """Interval length in simulated seconds."""
        return self.end - self.start

    # Backwards-compatible alias: lanes were keyed by rank historically.
    @property
    def rank(self) -> int:
        """Alias of :attr:`group` (rank for host-side events)."""
        return self.group


@dataclass(frozen=True)
class CounterSample:
    """One sample of a scalar counter series."""

    name: str
    time: float
    value: float
    group: int = 0


class Tracer:
    """Collects intervals/counters and renders or exports them.

    The analysis helpers (:meth:`busy_time`, :meth:`overlap_time`) merge a
    resource's intervals **across groups** by default, which preserves the
    historical single-rank behaviour and is what the overlap metrics want;
    pass ``group=`` to restrict to one timeline.
    """

    def __init__(self):
        self.events: List[TraceEvent] = []
        self.counters: List[CounterSample] = []
        #: run-level facts (measured window, device capacities, config).
        self.meta: Dict[str, Any] = {}
        #: group id -> display name ("rank 0", "gpu0", "nic0", ...).
        self.group_names: Dict[int, str] = {}

    # -- recording -------------------------------------------------------------
    def record(
        self,
        lane: str,
        name: str,
        start: float,
        end: float,
        group: int = 0,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Add one interval (``end >= start``; lane/name non-empty)."""
        if not lane or not isinstance(lane, str):
            raise ValueError(f"trace lane must be a non-empty string, got {lane!r}")
        if not name or not isinstance(name, str):
            raise ValueError(f"trace name must be a non-empty string, got {name!r}")
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"non-finite trace interval: [{start}, {end}]")
        if end < start:
            raise ValueError(f"interval ends before it starts: {start} > {end}")
        self.events.append(TraceEvent(lane, name, start, end, group, cat, args))

    def mark(
        self,
        lane: str,
        name: str,
        time: float,
        group: int = 0,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Add an instantaneous event (zero-length interval)."""
        self.record(lane, name, time, time, group, cat, args)

    def counter(self, name: str, time: float, value: float, group: int = 0) -> None:
        """Sample a scalar counter series at ``time``."""
        if not name or not isinstance(name, str):
            raise ValueError(f"counter name must be a non-empty string, got {name!r}")
        if not math.isfinite(time):
            raise ValueError(f"non-finite counter time: {time!r}")
        self.counters.append(CounterSample(name, float(time), float(value), group))

    def set_group_name(self, group: int, name: str) -> None:
        """Register a display name for a group id."""
        self.group_names[group] = name

    # -- lane enumeration -------------------------------------------------------
    def lane_keys(self) -> List[Tuple[int, str]]:
        """Distinct ``(group, resource)`` lanes.

        Ordered by group id first, then first-appearance within the group —
        so the ordering is **stable under concurrent-group interleaving**:
        however events from different ranks interleave in recording order,
        each rank's lanes keep their own first-appearance order and ranks
        stay sorted.
        """
        first_seen: Dict[Tuple[int, str], int] = {}
        for i, ev in enumerate(self.events):
            first_seen.setdefault((ev.group, ev.lane), i)
        return sorted(first_seen, key=lambda k: (k[0], first_seen[k]))

    def lane_label(self, group: int, lane: str) -> str:
        """Human-readable label for one lane."""
        nrank_groups = len({g for g, _ in self.lane_keys() if g < GPU_GROUP_BASE})
        return self._label(group, lane, nrank_groups > 1)

    def _label(self, group: int, lane: str, multi_rank: bool) -> str:
        if group < GPU_GROUP_BASE:
            return f"r{group}:{lane}" if multi_rank else lane
        gname = self.group_names.get(group)
        # Device/link lanes: prefix only when several devices share a lane
        # name (single-GPU traces keep the historical bare "gpu-kernel").
        peers = {g for g, l in self.lane_keys() if l == lane and g != group}
        if peers and gname:
            return f"{gname}:{lane}"
        return lane

    def lanes(self) -> List[str]:
        """Distinct lane display labels (see :meth:`lane_keys` for order)."""
        keys = self.lane_keys()
        multi_rank = len({g for g, _ in keys if g < GPU_GROUP_BASE}) > 1
        out: List[str] = []
        for g, lane in keys:
            label = self._label(g, lane, multi_rank)
            if label not in out:
                out.append(label)
        return out

    # -- analysis --------------------------------------------------------------
    def span(self) -> Tuple[float, float]:
        """(earliest start, latest end) over all events."""
        if not self.events:
            return (0.0, 0.0)
        return (
            min(ev.start for ev in self.events),
            max(ev.end for ev in self.events),
        )

    def merged_intervals(
        self, lane: str, group: Optional[int] = None
    ) -> List[Tuple[float, float]]:
        """A lane's intervals, sorted and merged (overlaps coalesced).

        Zero-length marks are dropped (they carry no busy time).
        """
        ivals = sorted(
            (ev.start, ev.end)
            for ev in self.events
            if ev.lane == lane
            and ev.end > ev.start
            and (group is None or ev.group == group)
        )
        out: List[Tuple[float, float]] = []
        for s, e in ivals:
            if out and s <= out[-1][1]:
                if e > out[-1][1]:
                    out[-1] = (out[-1][0], e)
            else:
                out.append((s, e))
        return out

    def busy_time(self, lane: str, group: Optional[int] = None) -> float:
        """Union length of a lane's intervals (overlaps merged)."""
        return sum(e - s for s, e in self.merged_intervals(lane, group))

    def overlap_time(
        self,
        lane_a: str,
        lane_b: str,
        group_a: Optional[int] = None,
        group_b: Optional[int] = None,
    ) -> float:
        """Time during which both lanes are simultaneously busy.

        This is the quantity the paper's implementations try to maximize
        (e.g. GPU-kernel time overlapped with host MPI time).
        """
        a = self.merged_intervals(lane_a, group_a)
        b = self.merged_intervals(lane_b, group_b)
        return intervals_intersection(a, b)

    # -- rendering --------------------------------------------------------------
    def timeline_text(
        self,
        width: int = 100,
        window: Optional[Tuple[float, float]] = None,
    ) -> str:
        """ASCII Gantt chart: one row per lane, time left to right."""
        if not self.events:
            return "(no trace events)"
        t0, t1 = window if window is not None else self.span()
        if t1 <= t0:
            return "(empty window)"
        scale = width / (t1 - t0)
        keys = self.lane_keys()
        multi_rank = len({g for g, _ in keys if g < GPU_GROUP_BASE}) > 1
        labels = [self._label(g, lane, multi_rank) for g, lane in keys]
        # Collapse lanes that share a display label (e.g. the same resource
        # recorded by several groups in a single-rank trace).
        rows: Dict[str, List[Tuple[int, str]]] = {}
        order: List[str] = []
        for key, label in zip(keys, labels):
            if label not in rows:
                rows[label] = []
                order.append(label)
            rows[label].append(key)
        lane_width = max(len(l) for l in order) + 1
        lines = [
            " " * lane_width
            + f"t = [{t0 * 1e3:.3f} ms .. {t1 * 1e3:.3f} ms], {width} cols"
        ]
        for label in order:
            keyset = set(rows[label])
            row = [" "] * width
            for ev in self.events:
                if (ev.group, ev.lane) not in keyset or ev.end <= t0 or ev.start >= t1:
                    continue
                a = max(0, int((ev.start - t0) * scale))
                b = min(width, max(a + 1, int((ev.end - t0) * scale)))
                chunk = ev.name[: b - a]
                for k in range(a, b):
                    off = k - a
                    row[k] = chunk[off] if off < len(chunk) else "="
            lines.append(label.ljust(lane_width) + "".join(row))
        return "\n".join(lines)


def intervals_intersection(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> float:
    """Total length of the intersection of two sorted merged interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total
