"""Tests for the execution tracer."""

import pytest

from repro.obs.tracer import TraceEvent, Tracer


def make_tracer(events):
    t = Tracer()
    for lane, name, s, e in events:
        t.record(lane, name, s, e)
    return t


class TestRecording:
    def test_event_fields(self):
        ev = TraceEvent("host", "compute", 1.0, 3.0)
        assert ev.duration == 2.0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record("host", "x", 2.0, 1.0)

    def test_lanes_in_first_appearance_order(self):
        t = make_tracer([
            ("gpu", "k", 0, 1),
            ("host", "c", 0, 1),
            ("gpu", "k2", 1, 2),
        ])
        assert t.lanes() == ["gpu", "host"]

    def test_span(self):
        t = make_tracer([("a", "x", 1.0, 2.0), ("b", "y", 0.5, 3.5)])
        assert t.span() == (0.5, 3.5)

    def test_empty_span(self):
        assert Tracer().span() == (0.0, 0.0)


class TestBusyTime:
    def test_disjoint_intervals_sum(self):
        t = make_tracer([("h", "a", 0, 1), ("h", "b", 2, 4)])
        assert t.busy_time("h") == pytest.approx(3.0)

    def test_overlapping_intervals_merge(self):
        t = make_tracer([("h", "a", 0, 2), ("h", "b", 1, 3)])
        assert t.busy_time("h") == pytest.approx(3.0)

    def test_other_lanes_ignored(self):
        t = make_tracer([("h", "a", 0, 2), ("g", "b", 0, 10)])
        assert t.busy_time("h") == pytest.approx(2.0)


class TestOverlapTime:
    def test_simple_overlap(self):
        t = make_tracer([("h", "a", 0, 4), ("g", "k", 2, 6)])
        assert t.overlap_time("h", "g") == pytest.approx(2.0)

    def test_no_overlap(self):
        t = make_tracer([("h", "a", 0, 1), ("g", "k", 2, 3)])
        assert t.overlap_time("h", "g") == 0.0

    def test_multiple_fragments(self):
        t = make_tracer([
            ("h", "a", 0, 2), ("h", "b", 4, 6),
            ("g", "k", 1, 5),
        ])
        assert t.overlap_time("h", "g") == pytest.approx(2.0)

    def test_symmetric(self):
        t = make_tracer([("h", "a", 0, 3), ("g", "k", 1, 7)])
        assert t.overlap_time("h", "g") == t.overlap_time("g", "h")


class TestTimeline:
    def test_renders_all_lanes(self):
        t = make_tracer([("host", "compute", 0, 1e-3), ("gpu", "kernel", 0, 2e-3)])
        text = t.timeline_text(width=40)
        assert "host" in text and "gpu" in text
        assert "compute"[:5] in text

    def test_empty(self):
        assert "no trace" in Tracer().timeline_text()

    def test_window_clips(self):
        t = make_tracer([("h", "early", 0, 1), ("h", "late", 10, 11)])
        text = t.timeline_text(width=40, window=(0, 2))
        assert "early"[:3] in text
        assert "late" not in text


class TestIntegration:
    def test_hybrid_overlap_trace_shows_real_overlap(self):
        from repro import RunConfig, YONA, run

        r = run(RunConfig(machine=YONA, implementation="hybrid_overlap",
                          cores=12, threads_per_task=12, box_thickness=2,
                          trace=True))
        tr = r.tracer
        assert set(tr.lanes()) >= {"host", "gpu-kernel", "gpu-copy"}
        # The defining property of §IV-I: GPU kernels overlap host work.
        assert tr.overlap_time("host", "gpu-kernel") > 0
        # Kernels dominate the step (the CPU box is a veneer).
        assert tr.busy_time("gpu-kernel") > tr.busy_time("host") * 0.5

    def test_trace_off_by_default(self):
        from repro import RunConfig, YONA, run

        r = run(RunConfig(machine=YONA, implementation="gpu_resident",
                          cores=12, threads_per_task=12))
        assert r.tracer is None

    def test_bulk_trace_shows_no_gpu(self):
        from repro import RunConfig, JAGUARPF, run

        r = run(RunConfig(machine=JAGUARPF, implementation="bulk",
                          cores=12, threads_per_task=6, trace=True))
        assert "gpu-kernel" not in r.tracer.lanes()
        assert r.tracer.busy_time("host") > 0
