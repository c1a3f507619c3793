"""Per-layer metrics: the traced run's span split, plus in-process probes.

A ``*_s`` metric of a layer is the layer's self time summed over the
traced pass (its span time minus its child spans), except
``experiments.<id>_s`` and ``sched.map_s``, which include their children.
A layer the workload never enters reads 0.  The harness scales these times
to the nominal host speed by the monitor's probes over the traced pass, as
it does the end-to-end times.  Probes run in the harness process: the DES
engine, the stencil kernel and the serve protocol codecs, each timed
best-of-k on fixed inputs and reported raw.
"""

from __future__ import annotations

import time
from typing import Dict, List

from spans import END, NAME, NOTE, PID, SID, START, SpanTable

now = time.perf_counter_ns

#: Simulated transfers in the DES probe: about 0.1 s of events a repeat.
DES_TRANSFERS = 20_000

#: Time steps of the stencil probe, on a warm arena.
STENCIL_STEPS = 2


def des_events_per_s() -> float:
    """Events/s through the public ``Environment`` API (callback-slot idiom)."""
    from repro.des import Environment

    lat, wire, ops_per_transfer = 1e-6, 3e-6, 8

    def waiter(done):
        yield done
        yield env.timeout(0.0)

    best = 0.0
    for _ in range(3):
        env = Environment()
        for _ in range(DES_TRANSFERS):
            done = env.event()
            env.schedule(lat, lambda _arg, done=done: env.schedule(wire, done.succeed))
            env.process(waiter(done))
        t = now()
        env.run()
        best = max(best, DES_TRANSFERS * ops_per_transfer / ((now() - t) / 1e9))
    return best


def stencil_mpts_per_s(block: int) -> float:
    """``kernels.advance`` on one rank's block, warm scratch arena."""
    import numpy as np

    from repro.stencil.coefficients import max_stable_nu, tensor_product_coefficients
    from repro.stencil.grid import allocate_field
    from repro.stencil.kernels import advance, interior

    velocity = (1.0, 0.9, 0.8)
    coeffs = tensor_product_coefficients(velocity, max_stable_nu(velocity))
    u = allocate_field((block,) * 3)
    interior(u)[...] = np.random.default_rng(0).random((block,) * 3)
    scratch = np.zeros_like(u)
    advance(u, coeffs, steps=STENCIL_STEPS, scratch=scratch)  # warms the arena
    best = None
    for _ in range(5):
        t = now()
        advance(u, coeffs, steps=STENCIL_STEPS, scratch=scratch)
        dt = now() - t
        best = dt if best is None else min(best, dt)
    return block ** 3 * STENCIL_STEPS / (best / 1e9) / 1e6


def serve_codec_us(docs: List[dict], bodies: List[dict]) -> Dict[str, float]:
    """Mean ``parse_request`` / ``encode_message`` cost on the workload's documents."""
    from repro.serve import protocol

    requests = [{"verb": "run", "id": i, "config": d} for i, d in enumerate(docs)]
    replies = [protocol.ok_response(i, {"result": b, "source": "memo"})
               for i, b in enumerate(bodies)]
    out = {}
    for name, fn, items in (("serve.parse_us", protocol.parse_request, requests),
                            ("serve.encode_us", protocol.encode_message, replies)):
        best = None
        for _ in range(5):
            t = now()
            for item in items:
                fn(item)
            dt = now() - t
            best = dt if best is None else min(best, dt)
        out[name] = best / 1e3 / len(items)
    return out


def from_spans(names: List[str], traced) -> Dict[str, float]:
    """Every declared span-derived metric of one traced run (0 where absent), raw."""
    t = SpanTable(traced.spans)
    c = traced.counters
    sims = t.parents_of("des.run")
    sim_ns = [s[END] - s[START] for s in t.spans
              if s[NAME] == "runner.run" and (s[PID], s[SID]) in sims]
    gets = [s for s in t.spans if s[NAME] == "cache.get"]

    def self_sum(suffix):
        return sum(t.self_s(n) for n in t.matching(suffix))

    map_s = t.total_s("sched.map")
    jobs = c.get("sched.jobs", 1)
    busy = c.get("sched.wall_s", 0.0)
    submitted = c.get("sched.submitted", 0)
    out = {
        "runner.calls": t.calls.get("runner.run", 0),
        "runner.simulated": len(sim_ns),
        "runner.ms_per_sim": sum(sim_ns) / len(sim_ns) / 1e6 if sim_ns else 0.0,
        "runner.self_s": t.self_s("runner.run"),
        "des.run_s": t.self_s("des.run"),
        "des.run_calls": t.calls.get("des.run", 0),
        "workloads.spmv.mirror_profile_s": t.self_s("workloads.spmv.mirror_profile"),
        "workloads.advection.mirror_profile_s":
            t.self_s("workloads.advection.mirror_profile"),
        "workloads.make_data_s": self_sum(".make_data"),
        "workloads.decompose_s": self_sum(".decompose"),
        "workloads.validate_s": self_sum(".validate"),
        "workloads.finalize_functional_s": self_sum(".finalize_functional"),
        "cache.get_s": t.self_s("cache.get"),
        "cache.get_calls": len(gets),
        "cache.hit_ratio": sum(bool(s[NOTE]) for s in gets) / len(gets) if gets else 0.0,
        "cache.put_s": t.self_s("cache.put"),
        "cache.put_calls": t.calls.get("cache.put", 0),
        "cache.config_key_s": t.self_s("cache.config_key"),
        "sched.map_s": map_s,
        "sched.worker_busy_frac": busy / (map_s * jobs) if map_s else 0.0,
        "sched.dispatch_us_per_task":
            (map_s - busy / jobs) / submitted * 1e6 if map_s and submitted else 0.0,
        "journal.record_calls": t.calls.get("journal.record", 0),
        "journal.flush_calls": t.calls.get("journal.flush", 0),
        "journal.flush_s": t.self_s("journal.flush"),
        "bench.span_coverage":
            t.covered_ns(traced.run.t0, traced.run.t1) / 1e9 / traced.run.raw_wall_s,
    }
    for name in names:
        if name.startswith("experiments."):
            out[name] = t.total_s(name[:-len("_s")])
        elif name not in out:
            out[name] = c.get(name, 0)
    return out
