"""Tests for the CPU roofline/OpenMP/NUMA timing model."""

import pytest

from repro.machines import HOPPER, JAGUARPF
from repro.machines.calibration import COPY_BYTES_PER_POINT
from repro.machines.cpu_model import (
    memcpy_time,
    omp_region_overhead,
    task_compute_time,
    task_memory_bandwidth,
)


class TestMemoryBandwidth:
    def test_scales_with_threads_within_numa(self):
        node = JAGUARPF.node
        bw1 = task_memory_bandwidth(node, 1)
        bw6 = task_memory_bandwidth(node, 6)
        assert bw6 == pytest.approx(6 * bw1)

    def test_numa_penalty_when_spanning(self):
        node = JAGUARPF.node  # 6 cores per NUMA domain
        bw12 = task_memory_bandwidth(node, 12)
        assert bw12 < 2 * task_memory_bandwidth(node, 6)

    def test_hopper_spans_four_domains_at_24(self):
        node = HOPPER.node  # 6-core dies
        per_core = task_memory_bandwidth(node, 1)
        bw24 = task_memory_bandwidth(node, 24)
        assert bw24 < 24 * per_core * 0.7  # three extra domains of penalty

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            task_memory_bandwidth(JAGUARPF.node, 0)


class TestComputeTime:
    def test_zero_points(self):
        assert task_compute_time(JAGUARPF.node, 4, 0) == 0.0

    def test_linear_in_points(self):
        node = JAGUARPF.node
        t1 = task_compute_time(node, 1, 10**6, region_overhead=False)
        t2 = task_compute_time(node, 1, 2 * 10**6, region_overhead=False)
        assert t2 == pytest.approx(2 * t1)

    def test_more_threads_faster_but_sublinear(self):
        node = JAGUARPF.node
        t1 = task_compute_time(node, 1, 10**7)
        t6 = task_compute_time(node, 6, 10**7)
        assert t6 < t1
        assert t6 > t1 / 6  # parallel inefficiency + region overhead

    def test_guided_slower_than_static(self):
        node = JAGUARPF.node
        ts = task_compute_time(node, 6, 10**6)
        tg = task_compute_time(node, 6, 10**6, guided=True)
        assert tg > ts

    def test_boundary_slower_than_interior(self):
        node = JAGUARPF.node
        boundary = task_compute_time(
            node, 6, 10**5, efficiency=node.boundary_loop_efficiency
        )
        assert boundary > task_compute_time(node, 6, 10**5)

    def test_region_overhead_only_for_parallel(self):
        node = JAGUARPF.node
        assert omp_region_overhead(node, 1) == 0.0
        assert omp_region_overhead(node, 6) > 0.0
        assert omp_region_overhead(node, 12) > omp_region_overhead(node, 2)

    def test_copy_state_cheaper_than_sweep(self):
        node = JAGUARPF.node
        # Step 3's cost as RankContext.copy_state_cost charges it
        copy = task_compute_time(
            node, 6, 10**6, bytes_per_point=COPY_BYTES_PER_POINT, flops_per_point=0.25
        )
        assert copy < task_compute_time(node, 6, 10**6)


class TestMemcpy:
    def test_zero_bytes(self):
        assert memcpy_time(JAGUARPF.node, 0) == 0.0

    def test_stride_penalty(self):
        node = JAGUARPF.node
        fast = memcpy_time(node, 10**6, 4, stride_penalty=1.0)
        slow = memcpy_time(node, 10**6, 4, stride_penalty=0.5)
        assert slow == pytest.approx(2 * fast)

    def test_threads_speed_up_copies(self):
        node = JAGUARPF.node
        assert memcpy_time(node, 10**6, 6) < memcpy_time(node, 10**6, 1)
