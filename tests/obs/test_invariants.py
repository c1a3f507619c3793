"""Trace-invariant checker: synthetic violations + every implementation."""

import math

import pytest

from repro.core.registry import IMPLEMENTATIONS, get_implementation
from repro.core.runner import run
from repro.obs.invariants import (
    TraceInvariantError,
    assert_invariants,
    check_trace,
)
from repro.obs.tracer import GPU_GROUP_BASE, Tracer

from obs_configs import tiny_config


def _violations(t: Tracer):
    return check_trace(t)


class TestWellFormed:
    def test_clean_trace_passes(self):
        t = Tracer()
        t.record("host", "c", 0.0, 1.0)
        assert _violations(t) == []

    def test_non_finite_detected(self):
        from repro.obs.tracer import TraceEvent

        t = Tracer()
        # append directly, bypassing record() validation, to simulate a
        # corrupted trace reaching the checker
        t.events.append(TraceEvent("host", "c", 0.0, math.inf))
        assert any("non-finite" in v for v in _violations(t))

    def test_negative_start_detected(self):
        from repro.obs.tracer import TraceEvent

        t = Tracer()
        t.events.append(TraceEvent("host", "c", -1.0, 1.0))
        assert any("before t=0" in v for v in _violations(t))


class TestHostExclusive:
    def test_double_booked_host_detected(self):
        t = Tracer()
        t.record("host", "a", 0.0, 2.0, group=0)
        t.record("host", "b", 1.0, 3.0, group=0)  # overlaps on one CPU
        assert any("double-booked" in v for v in _violations(t))

    def test_different_ranks_may_overlap(self):
        t = Tracer()
        t.record("host", "a", 0.0, 2.0, group=0)
        t.record("host", "b", 1.0, 3.0, group=1)
        assert _violations(t) == []

    def test_touching_intervals_are_fine(self):
        t = Tracer()
        t.record("host", "a", 0.0, 1.0)
        t.record("host", "b", 1.0, 2.0)  # back-to-back, not concurrent
        assert _violations(t) == []


class TestGpuLanes:
    def test_kernel_slots_respected(self):
        t = Tracer()
        t.meta["gpus"] = {GPU_GROUP_BASE: {"kernel_slots": 1, "copy_engines": 2}}
        t.record("gpu-kernel", "k1", 0.0, 2.0, group=GPU_GROUP_BASE)
        t.record("gpu-kernel", "k2", 1.0, 3.0, group=GPU_GROUP_BASE)
        assert any("kernel slot" in v for v in _violations(t))

    def test_concurrent_kernels_allowed_with_slots(self):
        t = Tracer()
        t.meta["gpus"] = {GPU_GROUP_BASE: {"kernel_slots": 16, "copy_engines": 2}}
        t.record("gpu-kernel", "k1", 0.0, 2.0, group=GPU_GROUP_BASE)
        t.record("gpu-kernel", "k2", 1.0, 3.0, group=GPU_GROUP_BASE)
        assert _violations(t) == []

    def test_same_direction_copies_detected(self):
        t = Tracer()
        t.record("gpu-copy", "h2d", 0.0, 2.0, group=GPU_GROUP_BASE,
                 args={"dir": "h2d"})
        t.record("gpu-copy", "h2d", 1.0, 3.0, group=GPU_GROUP_BASE,
                 args={"dir": "h2d"})
        assert any("h2d" in v and "per direction" in v for v in _violations(t))

    def test_opposite_directions_may_overlap(self):
        t = Tracer()
        t.record("gpu-copy", "h2d", 0.0, 2.0, group=GPU_GROUP_BASE,
                 args={"dir": "h2d"})
        t.record("gpu-copy", "d2h", 1.0, 3.0, group=GPU_GROUP_BASE,
                 args={"dir": "d2h"})
        assert _violations(t) == []

    def test_engine_total_respected(self):
        t = Tracer()
        t.meta["gpus"] = {GPU_GROUP_BASE: {"kernel_slots": 16, "copy_engines": 1}}
        t.record("gpu-copy", "h2d", 0.0, 2.0, group=GPU_GROUP_BASE,
                 args={"dir": "h2d"})
        t.record("gpu-copy", "d2h", 1.0, 3.0, group=GPU_GROUP_BASE,
                 args={"dir": "d2h"})
        assert any("copy engine" in v for v in _violations(t))

    def test_direction_falls_back_to_name_prefix(self):
        t = Tracer()
        t.record("gpu-copy", "h2d halo", 0.0, 2.0, group=GPU_GROUP_BASE)
        t.record("gpu-copy", "h2d halo", 1.0, 3.0, group=GPU_GROUP_BASE)
        assert any("per direction" in v for v in _violations(t))

    def test_blocking_pageable_serialized(self):
        t = Tracer()
        t.record("pcie", "sync", 0.0, 2.0, group=0, args={"dev": "gpu"})
        t.record("pcie", "sync", 1.0, 3.0, group=1, args={"dev": "gpu"})
        assert any("pageable" in v for v in _violations(t))


class TestMpiMatching:
    def test_matched_traffic_passes(self):
        t = Tracer()
        t.mark("mpi", "isend", 0.0, group=0,
               args={"src": 0, "dst": 1, "tag": 3, "nbytes": 64})
        t.mark("mpi", "irecv", 0.0, group=1,
               args={"src": 0, "dst": 1, "tag": 3, "nbytes": 64})
        assert _violations(t) == []

    def test_unmatched_send_detected(self):
        t = Tracer()
        t.mark("mpi", "isend", 0.0, group=0,
               args={"src": 0, "dst": 1, "tag": 3, "nbytes": 64})
        assert any("matching broken" in v for v in _violations(t))

    def test_byte_mismatch_detected(self):
        t = Tracer()
        t.mark("mpi", "isend", 0.0, group=0,
               args={"src": 0, "dst": 1, "tag": 3, "nbytes": 64})
        t.mark("mpi", "irecv", 0.0, group=1,
               args={"src": 0, "dst": 1, "tag": 3, "nbytes": 32})
        assert any("byte mismatch" in v for v in _violations(t))

    def test_mirror_mode_matches_per_tag(self):
        t = Tracer()
        t.meta["network"] = "mirror"
        t.mark("mpi", "isend", 0.0, group=0, args={"tag": 3, "nbytes": 64})
        t.mark("mpi", "irecv", 0.0, group=0, args={"tag": 3, "nbytes": 64})
        assert _violations(t) == []


class TestSpan:
    def _base(self):
        t = Tracer()
        t.record("host", "c", 0.0, 1.0)
        t.meta.update({"t0": 0.0, "t1": 1.0, "elapsed_s": 1.0})
        return t

    def test_consistent_passes(self):
        assert _violations(self._base()) == []

    def test_elapsed_mismatch_detected(self):
        t = self._base()
        t.meta["elapsed_s"] = 2.0
        assert any("disagree" in v for v in _violations(t))

    def test_trace_shorter_than_window_detected(self):
        t = self._base()
        t.meta["t1"] = 5.0
        t.meta["elapsed_s"] = 5.0
        assert any("before the measurement ended" in v for v in _violations(t))

    def test_trace_starting_late_detected(self):
        t = Tracer()
        t.record("host", "c", 0.5, 1.0)
        t.meta.update({"t0": 0.0, "t1": 1.0, "elapsed_s": 1.0})
        assert any("after the measurement began" in v for v in _violations(t))

    def test_idle_window_detected(self):
        t = Tracer()
        t.record("host", "setup", 0.0, 1.0)
        t.meta.update({"t0": 5.0, "t1": 6.0, "elapsed_s": 1.0})
        out = _violations(t)
        assert any("no lane is ever busy" in v for v in out)


class TestAssertInvariants:
    def test_raises_with_violation_list(self):
        t = Tracer()
        t.record("host", "a", 0.0, 2.0)
        t.record("host", "b", 1.0, 3.0)
        with pytest.raises(TraceInvariantError) as exc:
            assert_invariants(t)
        assert exc.value.violations
        assert "double-booked" in str(exc.value)

    def test_clean_trace_ok(self):
        t = Tracer()
        t.record("host", "c", 0.0, 1.0)
        assert_invariants(t)  # no raise


def _impl_params():
    out = []
    for key in sorted(IMPLEMENTATIONS):
        impl = get_implementation(key)
        machine = "yona" if impl.uses_gpu else "jaguarpf"
        threads = 3 if impl.uses_mpi else 12  # non-MPI impls are single-task
        out.append(pytest.param(key, machine, threads, id=key))
    return out


@pytest.mark.parametrize("key,machine,threads", _impl_params())
class TestRealRuns:
    def test_every_implementation_obeys_physics(self, key, machine, threads):
        cfg = tiny_config(key, machine=machine, threads_per_task=threads)
        result = run(cfg)
        assert_invariants(result.tracer)  # raises on violation

    def test_mirror_backend_obeys_physics(self, key, machine, threads):
        cfg = tiny_config(key, machine=machine, threads_per_task=threads,
                          network="mirror")
        result = run(cfg)
        assert_invariants(result.tracer)
