"""Unit tests for the structured tracer (lanes, validation, analysis, ASCII)."""

import math

import pytest

from repro.obs.tracer import (
    GPU_GROUP_BASE,
    CounterSample,
    TraceEvent,
    Tracer,
    intervals_intersection,
)


class TestRecordValidation:
    def test_empty_lane_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError, match="lane"):
            t.record("", "x", 0.0, 1.0)

    def test_empty_name_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError, match="name"):
            t.record("host", "", 0.0, 1.0)

    def test_non_string_lane_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError):
            t.record(3, "x", 0.0, 1.0)  # type: ignore[arg-type]

    def test_non_finite_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError, match="finite"):
            t.record("host", "x", 0.0, math.inf)
        with pytest.raises(ValueError, match="finite"):
            t.record("host", "x", math.nan, 1.0)

    def test_backwards_interval_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError, match="ends before"):
            t.record("host", "x", 2.0, 1.0)

    def test_counter_validation(self):
        t = Tracer()
        with pytest.raises(ValueError):
            t.counter("", 0.0, 1.0)
        with pytest.raises(ValueError):
            t.counter("n", math.inf, 1.0)

    def test_mark_is_zero_length(self):
        t = Tracer()
        t.mark("mpi", "isend", 1.5, group=2, args={"tag": 7})
        (ev,) = t.events
        assert ev.start == ev.end == 1.5
        assert ev.duration == 0.0
        assert ev.group == ev.rank == 2


class TestLaneOrdering:
    def test_single_group_first_appearance_order(self):
        t = Tracer()
        t.record("gpu", "k", 0.0, 1.0)
        t.record("host", "c", 0.0, 1.0)
        assert t.lanes() == ["gpu", "host"]

    def test_multi_rank_interleaving_is_stable(self):
        """Same lanes, different recording interleavings -> same ordering."""
        a = Tracer()
        a.record("host", "c", 0.0, 1.0, group=0)
        a.record("host", "c", 0.0, 1.0, group=1)
        a.record("mpi", "m", 1.0, 2.0, group=0)
        a.record("mpi", "m", 1.0, 2.0, group=1)

        b = Tracer()  # rank 1 lands first in recording order
        b.record("host", "c", 0.0, 1.0, group=1)
        b.record("host", "c", 0.0, 1.0, group=0)
        b.record("mpi", "m", 1.0, 2.0, group=1)
        b.record("mpi", "m", 1.0, 2.0, group=0)

        assert a.lane_keys() == b.lane_keys()
        assert a.lanes() == b.lanes()
        assert a.lanes() == ["r0:host", "r0:mpi", "r1:host", "r1:mpi"]

    def test_single_rank_label_is_bare(self):
        t = Tracer()
        t.record("host", "c", 0.0, 1.0, group=0)
        assert t.lane_label(0, "host") == "host"

    def test_device_label_prefixed_only_on_collision(self):
        t = Tracer()
        t.set_group_name(GPU_GROUP_BASE, "gpu0")
        t.set_group_name(GPU_GROUP_BASE + 1, "gpu1")
        t.record("gpu-kernel", "k", 0.0, 1.0, group=GPU_GROUP_BASE)
        assert t.lane_label(GPU_GROUP_BASE, "gpu-kernel") == "gpu-kernel"
        t.record("gpu-kernel", "k", 0.0, 1.0, group=GPU_GROUP_BASE + 1)
        assert t.lane_label(GPU_GROUP_BASE, "gpu-kernel") == "gpu0:gpu-kernel"
        assert t.lane_label(GPU_GROUP_BASE + 1, "gpu-kernel") == "gpu1:gpu-kernel"


class TestAnalysis:
    def test_merged_intervals_merge_and_drop_marks(self):
        t = Tracer()
        t.record("host", "a", 0.0, 2.0)
        t.record("host", "b", 1.0, 3.0)  # overlaps a
        t.record("host", "c", 5.0, 6.0)
        t.mark("host", "m", 4.0)  # zero-length: no busy time
        assert t.merged_intervals("host") == [(0.0, 3.0), (5.0, 6.0)]
        assert t.busy_time("host") == pytest.approx(4.0)

    def test_group_restriction(self):
        t = Tracer()
        t.record("host", "a", 0.0, 1.0, group=0)
        t.record("host", "a", 2.0, 3.0, group=1)
        assert t.busy_time("host") == pytest.approx(2.0)
        assert t.busy_time("host", group=0) == pytest.approx(1.0)
        assert t.merged_intervals("host", group=1) == [(2.0, 3.0)]

    def test_overlap_time(self):
        t = Tracer()
        t.record("host", "c", 0.0, 4.0)
        t.record("mpi", "m", 3.0, 6.0)
        assert t.overlap_time("host", "mpi") == pytest.approx(1.0)

    def test_span(self):
        t = Tracer()
        assert t.span() == (0.0, 0.0)
        t.record("host", "a", 1.0, 2.0)
        t.record("gpu", "b", 0.5, 1.5)
        assert t.span() == (0.5, 2.0)

    def test_intervals_intersection(self):
        a = [(0.0, 2.0), (4.0, 6.0)]
        b = [(1.0, 5.0)]
        assert intervals_intersection(a, b) == pytest.approx(2.0)
        assert intervals_intersection(a, []) == 0.0


class TestAsciiRenderer:
    def test_empty(self):
        assert Tracer().timeline_text() == "(no trace events)"

    def test_rows_and_names(self):
        t = Tracer()
        t.record("host", "compute", 0.0, 1.0)
        t.record("gpu-kernel", "stencil", 0.0, 0.5)
        out = t.timeline_text(width=40)
        lines = out.splitlines()
        assert len(lines) == 3  # header + two lanes
        assert lines[1].startswith("host")
        assert lines[2].startswith("gpu-kernel")
        assert "compute" in lines[1]
        assert "st" in lines[2]  # truncated activity name fills the bar

    def test_window_clips(self):
        t = Tracer()
        t.record("host", "early", 0.0, 1.0)
        t.record("host", "late", 10.0, 11.0)
        out = t.timeline_text(width=20, window=(10.0, 11.0))
        assert "late" in out
        assert "early" not in out

    def test_degenerate_window(self):
        t = Tracer()
        t.record("host", "a", 1.0, 2.0)
        assert t.timeline_text(window=(1.0, 1.0)) == "(empty window)"

    def test_bar_length_scales(self):
        t = Tracer()
        t.record("host", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx", 0.0, 1.0)
        t.record("gpu", "y", 0.0, 0.25)
        out = t.timeline_text(width=40, window=(0.0, 1.0))
        host_row = next(l for l in out.splitlines() if l.startswith("host"))
        gpu_row = next(l for l in out.splitlines() if l.startswith("gpu"))
        assert len(host_row.split(maxsplit=1)[1]) >= 40  # full-width bar
        # the gpu bar covers ~10 of 40 columns
        assert len(gpu_row.rstrip()) - len("gpu ") <= 12

    def test_same_label_lanes_collapse(self):
        t = Tracer()
        t.record("pcie", "a", 0.0, 1.0, group=0)
        t.record("pcie", "b", 2.0, 3.0, group=0)
        out = t.timeline_text(width=30)
        assert sum(1 for l in out.splitlines() if l.startswith("pcie")) == 1


class TestDataclasses:
    def test_trace_event_frozen(self):
        ev = TraceEvent("host", "x", 0.0, 1.0)
        with pytest.raises(AttributeError):
            ev.lane = "other"  # type: ignore[misc]

    def test_counter_sample_fields(self):
        c = CounterSample("n", 1.0, 2.0, group=5)
        assert (c.name, c.time, c.value, c.group) == ("n", 1.0, 2.0, 5)
