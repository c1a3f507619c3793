"""Derived performance metrics: speedup, efficiency, cost fractions.

The scaling figures show raw GF; these helpers compute the quantities the
paper discusses around them — parallel efficiency of a strong-scaling
series, the communication fraction of a step, and the overlap efficiency of
a traced run.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.config import RunResult
from repro.obs.tracer import Tracer

__all__ = [
    "parallel_efficiency",
    "speedup_series",
    "host_fraction",
    "exposed_wait_fraction",
    "overlap_efficiency",
]


def speedup_series(series: Dict[int, float]) -> Dict[int, float]:
    """Speedup relative to the smallest core count in a GF-vs-cores series."""
    if not series:
        return {}
    base_cores = min(series)
    base = series[base_cores]
    if base <= 0:
        raise ValueError("non-positive baseline performance")
    return {c: v / base for c, v in series.items()}


def parallel_efficiency(series: Dict[int, float]) -> Dict[int, float]:
    """Strong-scaling efficiency: speedup / core-count ratio (1.0 = ideal)."""
    if not series:
        return {}
    base_cores = min(series)
    sp = speedup_series(series)
    return {c: sp[c] / (c / base_cores) for c in series}


def host_fraction(result: RunResult, phase: str) -> float:
    """Fraction of the measured window one host phase accounts for.

    Phases are the representative rank's accounting categories
    (``compute``, ``pack``, ``copy``, ``stage``, ...). Because phases can
    overlap other resources (not each other), fractions may sum below 1
    (waiting time) — the gap *is* the exposed communication.
    """
    if result.elapsed_s <= 0:
        raise ValueError("empty measurement")
    return result.phases.get(phase, 0.0) / result.elapsed_s


def exposed_wait_fraction(result: RunResult) -> float:
    """Fraction of the window the host spent waiting (no phase charged).

    For CPU-only implementations this is almost exactly the exposed
    communication time; for GPU implementations it also contains time
    blocked on device synchronization.

    Raises ``ValueError`` on an empty measurement (non-positive elapsed
    time), consistently with :func:`host_fraction` — previously this
    divided straight through and raised ``ZeroDivisionError`` instead.
    """
    if result.elapsed_s <= 0:
        raise ValueError("empty measurement")
    busy = sum(result.phases.values())
    return max(0.0, 1.0 - busy / result.elapsed_s)


def overlap_efficiency(tracer: Tracer, lane_a: str = "host",
                       lane_b: str = "gpu-kernel") -> Optional[float]:
    """How much of the shorter lane's busy time overlaps the other lane.

    1.0 means the shorter resource ran entirely under the longer one — the
    ideal the §IV-I implementation aims for. ``None`` if either lane is
    absent.
    """
    busy_a = tracer.busy_time(lane_a)
    busy_b = tracer.busy_time(lane_b)
    if busy_a == 0 or busy_b == 0:
        return None
    return tracer.overlap_time(lane_a, lane_b) / min(busy_a, busy_b)
