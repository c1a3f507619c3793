"""Tracing must only observe: bit-identical results, capture semantics."""

import pytest

from repro.core.runner import run
from repro.obs.capture import active_capture, capture_traces

from obs_configs import tiny_config


class TestBitIdentical:
    """A traced run is bit-identical to an untraced one (tracing never
    schedules anything — it only appends records and callbacks)."""

    @pytest.mark.parametrize("impl,threads", [
        ("hybrid_overlap", 3),
        ("gpu_streams", 3),
        ("bulk", 3),
        ("nonblocking", 3),
        ("gpu_resident", 12),
    ])
    def test_trace_on_off_identical(self, impl, threads):
        machine = "yona" if impl != "bulk" and impl != "nonblocking" else "jaguarpf"
        cfg = tiny_config(impl, machine=machine, threads_per_task=threads,
                          trace=False)
        plain = run(cfg)
        traced = run(cfg.with_(trace=True))
        assert traced.elapsed_s == plain.elapsed_s  # exact, not approx
        assert traced.phases == plain.phases
        assert traced.comm_stats == plain.comm_stats
        assert plain.tracer is None and traced.tracer is not None

    def test_mirror_backend_identical_too(self):
        cfg = tiny_config("hybrid_overlap", network="mirror", trace=False)
        plain = run(cfg)
        traced = run(cfg.with_(trace=True))
        assert traced.elapsed_s == plain.elapsed_s


class TestCapture:
    def test_inactive_by_default(self):
        assert active_capture() is None

    def test_forces_tracing_and_feeds_callback(self):
        cfg = tiny_config("bulk", machine="jaguarpf", trace=False)
        seen = []
        with capture_traces(seen.append):
            result = run(cfg)
        assert len(seen) == 1
        assert seen[0] is result
        assert result.tracer is not None  # trace was forced on
        assert active_capture() is None  # uninstalled afterwards

    def test_captured_scalars_match_uncaptured(self):
        cfg = tiny_config("hybrid_overlap", trace=False)
        plain = run(cfg)
        seen = []
        with capture_traces(seen.append):
            captured = run(cfg)
        assert captured.elapsed_s == plain.elapsed_s
        assert captured.phases == plain.phases

    def test_nesting_rejected(self):
        with capture_traces(lambda r: None):
            with pytest.raises(RuntimeError, match="already active"):
                with capture_traces(lambda r: None):
                    pass  # pragma: no cover

    def test_uninstalled_after_exception(self):
        with pytest.raises(ValueError):
            with capture_traces(lambda r: None):
                raise ValueError("boom")
        assert active_capture() is None
