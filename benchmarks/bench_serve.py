"""Serve daemon hot path: warm cached-query throughput and latency.

The serve contract (docs/MODEL.md §14) is that a warm query — one whose
config key is already memoized — never touches a scheduler worker: the
listener answers straight from the in-memory memo. That makes warm
throughput a pure protocol + event-loop number, gated here at
:data:`FLOOR_WARM_QPS` with 8 concurrent pipelined clients.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time

import pytest

import repro
from repro.serve.client import ServeClient

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CFG_DOC = {"machine": "lens", "impl": "nonblocking", "cores": 16,
           "domain": 16, "steps": 4}

#: Warm queries/s with N_CLIENTS pipelined clients, best of 2 storms.
FLOOR_WARM_QPS = 10_000

#: Concurrent pipelined clients.
N_CLIENTS = 8

#: Warm queries issued per client per benchmark round.
QUERIES_PER_CLIENT = 1024

#: Pipelining window: docs written before reading responses back.
PIPELINE_WINDOW = 32


def _spawn_daemon(workdir):
    ready = os.path.join(workdir, "ready.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--ready-file", ready, "--cache-dir",
         os.path.join(workdir, "cache")],
        env=env, cwd=workdir,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while not os.path.exists(ready):
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise RuntimeError(f"daemon died: {out}\n{err}")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("daemon never became ready")
        time.sleep(0.02)
    with open(ready, encoding="utf-8") as fh:
        info = json.load(fh)
    return proc, info["host"], info["port"]


@pytest.fixture(scope="module")
def daemon():
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as workdir:
        proc, host, port = _spawn_daemon(workdir)
        with ServeClient(host, port, timeout_s=60) as c:
            assert c.run(CFG_DOC)["ok"]  # prime the memo
        yield host, port
        proc.kill()
        proc.communicate(timeout=10)


def _client_burst(host, port, n_queries, latencies=None):
    """Issue n warm queries over one connection, pipelined in windows."""
    doc = {"verb": "run", "config": CFG_DOC}
    done = 0
    with ServeClient(host, port, timeout_s=60) as c:
        while done < n_queries:
            window = min(PIPELINE_WINDOW, n_queries - done)
            t0 = time.perf_counter()
            docs = [dict(doc, id=done + i) for i in range(window)]
            for resp in c.pipeline(docs):
                assert resp["ok"]
            if latencies is not None:
                # Per-window wall time amortized over the window.
                latencies.append((time.perf_counter() - t0) / window)
            done += window
    return done


def test_bench_serve_warm_throughput(daemon):
    """8 pipelined clients hammering one warm config concurrently."""
    host, port = daemon

    def storm():
        counts = [0] * N_CLIENTS
        errs = []

        def worker(i):
            try:
                counts[i] = _client_burst(host, port, QUERIES_PER_CLIENT)
            except BaseException as exc:  # pragma: no cover
                errs.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(N_CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        elapsed = time.perf_counter() - t0
        assert not errs, errs
        return sum(counts) / elapsed

    qps = max(storm() for _ in range(2))
    assert qps >= FLOOR_WARM_QPS, (
        f"{qps:,.0f} warm queries/s < {FLOOR_WARM_QPS:,} floor"
    )


def test_bench_serve_warm_latency(benchmark, daemon):
    """Sequential warm round-trips: p50/p99 per-query latency."""
    host, port = daemon
    latencies = []

    def burst():
        return _client_burst(host, port, 512, latencies=latencies)

    n = benchmark(burst)
    assert n == 512
    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    benchmark.extra_info["warm_p50_us"] = round(p50 * 1e6, 1)
    benchmark.extra_info["warm_p99_us"] = round(p99 * 1e6, 1)
    assert p99 < 1.0, "a warm query took over a second"
