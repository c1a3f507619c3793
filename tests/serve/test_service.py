"""In-process SimulationService tests: admission, timeout, poisoning.

These drive the asyncio service directly (no subprocess) so timing can
be controlled exactly — slow jobs are injected by gating
``repro.core.runner.run`` (the scheduler's inline ``jobs=1`` path
resolves it at call time), faults by the scheduler's fault injector.
"""

import asyncio
import errno
import os
import threading

import pytest

import repro.core.runner as runner
from repro.cache import configure as cache_configure
from repro.sched import Scheduler, configure as sched_configure
from repro.serve.service import SimulationService

from serve_helpers import CFG_DOC


@pytest.fixture(autouse=True)
def _no_ambient_state():
    cache_configure(None)
    sched_configure(None)
    yield
    cache_configure(None)
    sched_configure(None)


def _doc(i=1, **cfg_overrides):
    return {
        "verb": "run",
        "id": i,
        "config": dict(CFG_DOC, **cfg_overrides),
    }


def _run(coro):
    return asyncio.run(coro)


def _gate(monkeypatch, release):
    """Hold every simulation until ``release`` is set."""
    real = runner.run

    def slow(cfg):
        assert release.wait(30), "the gate was never released"
        return real(cfg)

    monkeypatch.setattr(runner, "run", slow)


@pytest.fixture
def service(tmp_path):
    svc = SimulationService(
        jobs=1,
        cache_dir=str(tmp_path / "cache"),
        journal=str(tmp_path / "journal.jsonl"),
        max_inflight=2,
        default_timeout_s=60.0,
    )
    yield svc
    svc.close()


class TestTiers:
    def test_cold_then_memo_then_cache(self, service, tmp_path):
        async def scenario():
            first = await service.handle(_doc(1))
            second = await service.handle(_doc(2))
            # A differently-spelled equivalent query bypasses the
            # signature memo but lands on the key memo.
            spelled = _doc(3)
            spelled["config"]["implementation"] = spelled["config"].pop(
                "impl"
            )
            third = await service.handle(spelled)
            return first, second, third

        first, second, third = _run(scenario())
        assert first["ok"] and first["source"] == "simulated"
        assert second["source"] == "memo"
        assert third["source"] == "memo"
        assert first["result"] == second["result"] == third["result"]

    def test_fresh_service_reads_the_run_cache(self, service, tmp_path):
        first = _run(service.handle(_doc(1)))
        service.close()
        svc2 = SimulationService(
            jobs=1, cache_dir=str(tmp_path / "cache"), max_inflight=2
        )
        try:
            second = _run(svc2.handle(_doc(2)))
        finally:
            svc2.close()
        assert second["source"] == "cache"
        assert second["result"] == first["result"]
        assert svc2.metrics.to_dict()["counters"]["warm_cache_hits"] == 1

    def test_journal_probe_answers_without_a_worker(self, service, tmp_path):
        _run(service.handle(_doc(1)))
        service.close()  # flushes the journal
        svc2 = SimulationService(
            jobs=1, cache_dir=None,
            journal=str(tmp_path / "journal.jsonl"), max_inflight=2,
        )
        try:
            resp = _run(svc2.handle(_doc(2)))
            snap = svc2.sched.snapshot()
        finally:
            svc2.close()
        assert resp["ok"] and resp["source"] == "journal"
        counters = snap["counters"]
        assert counters["simulated"] == 0 and counters["inline"] == 0, (
            "a worker was consulted"
        )
        assert counters["journal_hits"] == 1


class TestCoalescingExact:
    def test_n_waiters_one_job(self, service, monkeypatch):
        """Deterministic coalescing: the job blocks until every other
        query has joined, so exactly 1 admission + n-1 coalesced."""
        n = 5
        release = threading.Event()
        _gate(monkeypatch, release)

        async def scenario():
            tasks = [
                asyncio.create_task(service.handle(_doc(i)))
                for i in range(n)
            ]
            # Wait until all n handlers either admitted or coalesced.
            while True:
                counters = service.metrics.to_dict()["counters"]
                if counters["admitted"] + counters["coalesced"] == n:
                    break
                await asyncio.sleep(0.01)
            release.set()
            return await asyncio.gather(*tasks)

        results = _run(scenario())
        counters = service.metrics.to_dict()["counters"]
        assert counters["admitted"] == 1
        assert counters["coalesced"] == n - 1
        snap = service.sched.snapshot()
        assert snap["counters"].get("inline", 0) + snap["counters"].get(
            "simulated", 0
        ) == 1
        base = results[0]["result"]
        assert all(r["result"] == base for r in results)
        sources = sorted(r["source"] for r in results)
        assert sources == ["coalesced"] * (n - 1) + ["simulated"]


    def test_identical_replicated_queries_share_one_job(
        self, service, monkeypatch
    ):
        """The second of two identical cold replicated queries finds all
        R derived-seed records in flight and coalesces onto them."""
        from repro.serve.protocol import config_from_dict

        cfg_doc = dict(CFG_DOC, seed=7, noise="medium")
        ref = runner.run_replicated(config_from_dict(cfg_doc), 4)
        release = threading.Event()
        _gate(monkeypatch, release)

        async def scenario():
            doc = {"verb": "run", "config": cfg_doc, "replicas": 4}
            first = asyncio.create_task(service.handle(dict(doc, id=1)))
            while not service.metrics.to_dict()["counters"]["admitted"]:
                await asyncio.sleep(0.01)
            second = asyncio.create_task(service.handle(dict(doc, id=2)))
            while not service.metrics.to_dict()["counters"]["coalesced"]:
                await asyncio.sleep(0.01)
            release.set()
            return await asyncio.gather(first, second)

        results = _run(scenario())
        counters = service.metrics.to_dict()["counters"]
        assert counters["admitted"] == 1
        assert counters["coalesced"] == 1
        assert [r["source"] for r in results] == ["simulated", "coalesced"]
        for resp in results:
            assert resp["result"]["elapsed_s"] == ref.elapsed_s
            assert resp["result"]["phases"] == ref.phases
            assert resp["result"]["stats"] == ref.stats
        assert service.sched.snapshot()["inflight"] == 0


class TestBackpressureExact:
    def test_admission_cap_rejects_excess_cold_queries(
        self, service, monkeypatch
    ):
        """max_inflight=2: with 2 jobs parked on a gate, every further
        distinct cold query gets a structured busy error immediately."""
        release = threading.Event()
        _gate(monkeypatch, release)

        async def scenario():
            blocked = [
                asyncio.create_task(service.handle(_doc(i, cores=16 * (i + 1))))
                for i in range(2)
            ]
            while service.metrics.to_dict()["counters"]["admitted"] < 2:
                await asyncio.sleep(0.01)
            rejected = [
                await service.handle(_doc(10 + i, cores=16 * (3 + i)))
                for i in range(3)
            ]
            release.set()
            done = await asyncio.gather(*blocked)
            return rejected, done

        rejected, done = _run(scenario())
        for resp in rejected:
            assert resp["ok"] is False
            assert resp["error"]["type"] == "busy"
        assert all(r["ok"] for r in done)
        counters = service.metrics.to_dict()["counters"]
        assert counters["rejected_busy"] == 3
        assert counters["admitted"] == 2
        gauges = service.metrics.to_dict()["gauges"]
        assert gauges["inflight"] == 0, "admission slot leaked"
        assert not service._jobs
        assert service.sched.snapshot()["inflight"] == 0

    def test_warm_queries_flow_past_a_full_admission_gate(
        self, service, monkeypatch
    ):
        release = threading.Event()

        async def scenario():
            warm_prime = await service.handle(_doc(0))  # before the jam
            _gate(monkeypatch, release)
            jam = [
                asyncio.create_task(
                    service.handle(_doc(i, cores=16 * (i + 2)))
                )
                for i in range(2)
            ]
            while service.metrics.to_dict()["counters"]["admitted"] < 3:
                await asyncio.sleep(0.01)
            warm = await service.handle(_doc(99))
            release.set()
            await asyncio.gather(*jam)
            return warm_prime, warm

        warm_prime, warm = _run(scenario())
        assert warm["ok"] and warm["source"] == "memo"
        assert warm["result"] == warm_prime["result"]


class TestTimeout:
    def test_timeout_detaches_the_requester_not_the_job(
        self, service, monkeypatch
    ):
        release = threading.Event()
        _gate(monkeypatch, release)

        async def scenario():
            doc = _doc(1)
            doc["timeout"] = 0.05
            timed_out = await service.handle(doc)
            release.set()
            # The detached job still completes and memoizes; await it.
            for task in list(service._jobs):
                await task
            late = await service.handle(_doc(2))
            return timed_out, late

        timed_out, late = _run(scenario())
        assert timed_out["ok"] is False
        assert timed_out["error"]["type"] == "timeout"
        assert service.metrics.to_dict()["counters"]["timeouts"] == 1
        assert late["ok"] and late["source"] == "memo"


class TestPoisoned:
    def test_poisoned_config_returns_structured_error(self, tmp_path):
        sched = Scheduler(jobs=2, cache_dir=str(tmp_path / "cache"),
                          max_retries=1)
        sched.fault_injector = lambda cfg, attempts: True  # always crash
        svc = SimulationService(scheduler=sched, max_inflight=2)
        try:
            resp = _run(svc.handle(_doc(1)))
            counters = svc.metrics.to_dict()["counters"]
            gauges = svc.metrics.to_dict()["gauges"]
        finally:
            svc.close()
        assert resp["ok"] is False
        assert resp["error"]["type"] == "poisoned"
        assert "poisoned" in resp["error"]["message"]
        assert gauges["inflight"] == 0, "poisoning leaked the slot"
        assert counters["responses_error"] == 1

    def test_healthy_queries_unaffected_after_poisoning(self, tmp_path):
        sched = Scheduler(jobs=2, cache_dir=str(tmp_path / "cache"),
                          max_retries=1)
        sched.fault_injector = lambda cfg, attempts: cfg.cores == 32
        svc = SimulationService(scheduler=sched, max_inflight=2)
        try:
            bad = _run(svc.handle(_doc(1, cores=32)))
            good = _run(svc.handle(_doc(2, cores=16)))
        finally:
            svc.close()
        assert bad["ok"] is False and bad["error"]["type"] == "poisoned"
        assert good["ok"] is True


    def test_poisoned_config_asked_again_takes_no_slot(self, tmp_path):
        """The poisoned record is terminal: a repeat query is answered
        from it without an admission slot or a second crash loop."""
        sched = Scheduler(jobs=2, cache_dir=str(tmp_path / "cache"),
                          max_retries=1)
        sched.fault_injector = lambda cfg, attempts: True  # always crash
        svc = SimulationService(scheduler=sched, max_inflight=2)
        try:
            first = _run(svc.handle(_doc(1)))
            again = _run(svc.handle(_doc(2)))
            counters = svc.metrics.to_dict()["counters"]
            crashes = sched.stats()["crashes"]
        finally:
            svc.close()
        assert first["error"]["type"] == again["error"]["type"] == "poisoned"
        assert counters["admitted"] == 1
        assert crashes == 2  # one ambiguous-blame round, one solo: no more


class TestFailures:
    """Simulator and I/O failures come back as structured errors."""

    def _assert_failed(self, service, resp):
        assert resp["ok"] is False
        assert resp["error"]["type"] == "failed"
        metrics = service.metrics.to_dict()
        assert metrics["counters"]["responses_error"] == 1
        assert metrics["gauges"]["inflight"] == 0, "the failure leaked a slot"
        assert service.sched.snapshot()["inflight"] == 0

    def test_simulator_error_on_a_run(self, service, monkeypatch):
        def broken(cfg):
            raise RuntimeError("simulator bug")

        monkeypatch.setattr(runner, "run", broken)
        resp = _run(service.handle(_doc(1)))
        self._assert_failed(service, resp)
        assert "simulator bug" in resp["error"]["message"]

    def test_journal_commit_failure_on_a_run(self, service, monkeypatch):
        def disk_full(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with monkeypatch.context() as m:
            m.setattr(os, "fsync", disk_full)
            resp = _run(service.handle(_doc(1)))
        self._assert_failed(service, resp)


class TestDrainInProcess:
    def test_drain_refuses_new_finishes_old(self, service, monkeypatch):
        release = threading.Event()
        _gate(monkeypatch, release)

        async def scenario():
            inflight = asyncio.create_task(service.handle(_doc(1)))
            while not service.metrics.to_dict()["counters"]["admitted"]:
                await asyncio.sleep(0.01)
            service.begin_drain()
            refused = await service.handle(_doc(2, cores=32))
            release.set()
            finished = await inflight
            clean = await service.drain(grace_s=30)
            return refused, finished, clean

        refused, finished, clean = _run(scenario())
        assert refused["ok"] is False
        assert refused["error"]["type"] == "draining"
        assert finished["ok"] is True
        assert clean is True

    def test_stats_verb_reports_consistent_document(self, service):
        async def scenario():
            await service.handle(_doc(1))
            await service.handle(_doc(2))
            return await service.handle({"verb": "stats", "id": 3})

        stats = _run(scenario())
        assert stats["ok"]
        assert stats["version"] == 1
        assert stats["service"]["counters"]["warm_memo_hits"] == 1
        assert stats["scheduler"]["counters"]["submitted"] == 1
        assert stats["service"]["latency"]["warm"]["count"] >= 1
        assert (
            stats["service"]["latency"]["all"]["count"]
            >= stats["service"]["latency"]["warm"]["count"]
        )

    def test_cache_counters_come_from_the_storing_handle(self, service):
        """A cold query's miss and store show up in stats and /metrics."""
        async def scenario():
            await service.handle(_doc(1))
            return await service.handle({"verb": "stats", "id": 2})

        stats = _run(scenario())
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["stores"] == 1
        text = service.render_metrics()
        assert "repro_cache_misses_total 1" in text
        assert "repro_cache_stores_total 1" in text

    def test_metrics_render_parses_as_prometheus_text(self, service):
        _run(service.handle(_doc(1)))
        text = service.render_metrics()
        for line in text.strip().splitlines():
            name, value = line.rsplit(" ", 1)
            float(value)  # every sample value is numeric
            assert name.startswith(("repro_serve_", "repro_sched_",
                                    "repro_journal_", "repro_cache_"))
        assert "repro_serve_requests_total 1" in text
        assert 'repro_serve_latency_all_seconds_bucket{le="+Inf"} 1' in text
