"""CPU-side timing model: roofline compute, OpenMP overheads, copies.

The model answers one question for the implementations' timed programs:
*how long does a task with ``t`` OpenMP threads take to sweep ``n`` points
(or copy ``b`` bytes)?* It is a max-of-rooflines:

* flop term — ``t`` cores at the calibrated achieved fraction of SSE2 peak;
* memory term — the task's share of its NUMA domains' streaming bandwidth,
  with a penalty when one task spans several NUMA domains (remote first
  touch), which is what makes 24 threads/task on Hopper II never optimal
  (paper §V-B);

plus an OpenMP parallel-region overhead per sweep. Nodes are assumed fully
packed (threads_per_task x tasks_per_node == cores), which holds for every
experiment in the paper.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.machines.calibration import (
    GUIDED_SCHEDULE_OVERHEAD,
    STENCIL_BYTES_PER_POINT,
)
from repro.machines.spec import NodeSpec
from repro.stencil.coefficients import FLOPS_PER_POINT

__all__ = [
    "task_memory_bandwidth",
    "omp_region_overhead",
    "task_compute_time",
    "memcpy_time",
]


def task_memory_bandwidth(node: NodeSpec, threads: int) -> float:
    """Streaming bandwidth (B/s) available to one task with ``threads`` threads.

    Each core gets its proportional share of its NUMA domain's bandwidth
    (the node is fully packed); a task spanning ``k`` NUMA domains loses a
    ``numa_remote_penalty`` factor per extra domain because its arrays are
    first-touched on one domain.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    per_core = node.numa_bandwidth_gbs * 1e9 / node.cores_per_numa
    spanned = math.ceil(threads / node.cores_per_numa)
    penalty = node.numa_remote_penalty ** max(0, spanned - 1)
    return threads * per_core * penalty


def omp_region_overhead(node: NodeSpec, threads: int) -> float:
    """Fork/join + barrier cost (s) of one OpenMP parallel region."""
    if threads <= 1:
        return 0.0
    return (node.omp_region_overhead_us + node.omp_per_thread_overhead_us * threads) * 1e-6


def task_compute_time(
    node: NodeSpec,
    threads: int,
    points: int,
    *,
    bytes_per_point: float = STENCIL_BYTES_PER_POINT,
    flops_per_point: float = FLOPS_PER_POINT,
    efficiency: float = 1.0,
    guided: bool = False,
    region_overhead: bool = True,
    mem_bandwidth: Optional[float] = None,
) -> float:
    """Seconds for one task to sweep ``points`` stencil points.

    ``efficiency`` scales the flop rate (used for strided boundary loops);
    ``guided`` applies the schedule(guided) overhead of §IV-D.
    ``mem_bandwidth``, when given, is ``task_memory_bandwidth(node, threads)``
    already computed by the caller.
    """
    if points <= 0:
        return 0.0
    omp_eff = 1.0 / (1.0 + node.omp_parallel_inefficiency * (threads - 1))
    flop_rate = (
        threads
        * node.peak_gflops_per_core
        * 1e9
        * node.stencil_flop_efficiency
        * efficiency
        * omp_eff
    )
    if mem_bandwidth is None:
        mem_bandwidth = task_memory_bandwidth(node, threads)
    mem_rate = mem_bandwidth * efficiency
    t = max(points * flops_per_point / flop_rate, points * bytes_per_point / mem_rate)
    if guided:
        t *= 1.0 + GUIDED_SCHEDULE_OVERHEAD
    if region_overhead:
        t += omp_region_overhead(node, threads)
    return t


def memcpy_time(
    node: NodeSpec,
    nbytes: int,
    threads: int = 1,
    stride_penalty: float = 1.0,
    mem_bandwidth: Optional[float] = None,
) -> float:
    """Seconds to copy ``nbytes`` on-node (halo pack/unpack, send buffers).

    Parallelizes over threads up to half the task's streaming bandwidth
    (copies move 2 bytes of traffic per byte copied). ``stride_penalty`` < 1
    models strided gathers (e.g. packing x faces of a z-contiguous array).
    ``mem_bandwidth`` is as in :func:`task_compute_time`.
    """
    if nbytes <= 0:
        return 0.0
    if mem_bandwidth is None:
        mem_bandwidth = task_memory_bandwidth(node, threads)
    rate = min(node.memcpy_bandwidth_gbs * 1e9 * threads, mem_bandwidth / 2.0)
    return nbytes / (rate * stride_penalty)
