"""Disabled-path cost of the optional run layers.

Tracing, perturbation, progress models and the workload layer each leave
a check on the hot path of a run that does not use them: a ``tracer is
None`` or ``perturb is None`` guard per instrumented site, a progress
tax guard per compute charge plus the ``background_fraction`` dispatches
the send prices make (counted on a plain run), and one workload +
implementation lookup per dispatch site. There is no build without those checks to race at runtime, so the
cost is bounded analytically: a traced run counts the sites, a
micro-benchmark prices one check (loop overhead included, so the bound
is conservative), and the product over a plain run's wall time must
stay under each layer's ceiling.

The enabled perturbation layer is priced directly instead: a sample of
the ledger's sweep space runs seeded with ``noise="low"`` and noiseless,
interleaved in one process and timed by ``process_time``, and the seeded
runs may cost at most 1.45x the noiseless ones.

Run from the repository root::

    python -m pytest benchmarks/bench_guards.py -q --benchmark-disable
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro.core.config import RunConfig
from repro.core.runner import run
from repro.machines import get_machine
from repro.machines.spec import InterconnectSpec
from repro.simmpi import message
from repro.workloads import get_workload

def _cfg(**kw) -> RunConfig:
    return RunConfig(
        machine=get_machine("yona"), implementation="hybrid_overlap",
        cores=12, threads_per_task=6, box_thickness=3, **kw,
    )


def _guard_cost_s(iters: int = 2_000_000) -> float:
    """Wall cost of one ``tracer is None`` check (incl. loop overhead)."""
    tracer = None
    hits = 0
    t0 = time.perf_counter()
    for _ in range(iters):
        if tracer is not None:  # the exact guard the hot paths use
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits == 0
    return elapsed / iters


def _run_s(network: str) -> float:
    """Best-of-3 batches of 20 plain runs: seconds per run."""
    cfg = _cfg(network=network)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(20):
            run(cfg)
        best = min(best, (time.perf_counter() - t0) / 20)
    return best


def _traced_events():
    tracer = run(_cfg(network="full", trace=True)).tracer
    return tracer.events, tracer.counters


def _guard_sites_bound() -> float:
    """Tracing/perturbation: two guards per traced event or counter."""
    events, counters = _traced_events()
    n_guards = 2 * (len(events) + len(counters))
    return n_guards * _guard_cost_s() / _run_s("full")


def _dispatch_calls() -> int:
    """``background_fraction`` calls a plain full run makes, its send
    prices not yet memoized (the most a run can make)."""
    calls = []
    real = InterconnectSpec.background_fraction

    def counting(self, eager):
        calls.append(eager)
        return real(self, eager)

    InterconnectSpec.background_fraction = counting
    try:
        message._pricing.cache_clear()
        run(_cfg(network="full"))
    finally:
        InterconnectSpec.background_fraction = real
    return len(calls)


def _progress_bound() -> float:
    """One guard per compute charge, one per counted dispatch, doubled."""
    events, _ = _traced_events()
    n_charges = sum(1 for ev in events if ev.lane == "host")
    n_dispatch = _dispatch_calls()
    ic = get_machine("yona").interconnect
    iters = 200_000
    t0 = time.perf_counter()
    for _ in range(iters):
        ic.background_fraction(False)  # the dispatch a send price makes
    dispatch_s = (time.perf_counter() - t0) / iters
    cost = n_charges * _guard_cost_s() + n_dispatch * dispatch_s
    print(f"\nprogress: {n_charges} compute charges, {n_dispatch} "
          f"background_fraction calls")
    return 2 * cost / _run_s("full")


def _workload_bound() -> float:
    """Two dispatch sites per run (runner + validate), doubled."""
    iters = 200_000
    t0 = time.perf_counter()
    for _ in range(iters):
        get_workload("advection").implementation("hybrid_overlap")
    dispatch_s = (time.perf_counter() - t0) / iters
    return 4 * dispatch_s / _run_s("mirror")


#: layer -> (ceiling on its disabled cost as a fraction of a plain run,
#: the bound that is checked against it)
LAYERS = {
    "tracing": (0.02, _guard_sites_bound),
    "perturbation": (0.03, _guard_sites_bound),
    "progress": (0.02, _progress_bound),
    "workload": (0.02, _workload_bound),
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_disabled_cost_under_ceiling(layer):
    ceiling, bound_fn = LAYERS[layer]
    bound = bound_fn()
    assert bound <= ceiling, (
        f"disabled {layer} bound {100 * bound:.2f}% > "
        f"{100 * ceiling:.0f}% ceiling"
    )


#: Ceiling on seeded-``low`` over noiseless CPU time for the same configs.
SEEDED_CEILING = 1.45


def _sweep_sample():
    """The ledger's ``--quick`` sweep space (every 16th config), as pairs."""
    sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))
    try:
        from workloads import config_space
    finally:
        sys.path.pop(0)
    from repro.serve.protocol import config_from_dict

    docs = config_space(True)
    seeded = [config_from_dict(dict(d, seed=i + 1, noise="low"))
              for i, d in enumerate(docs)]
    return seeded, [c.with_(seed=None, noise=None) for c in seeded]


def test_enabled_noise_cost_under_ceiling():
    seeded, plain = _sweep_sample()
    cpu = {"seeded": 0.0, "plain": 0.0}
    for _ in range(5):
        for name, cfgs in (("seeded", seeded), ("plain", plain)):
            t0 = time.process_time()
            for cfg in cfgs:
                run(cfg)
            cpu[name] += time.process_time() - t0
    ratio = cpu["seeded"] / cpu["plain"]
    assert ratio <= SEEDED_CEILING, (
        f"seeded low noise costs {ratio:.3f}x noiseless over {len(plain)} "
        f"sweep configs > {SEEDED_CEILING}x ceiling"
    )
