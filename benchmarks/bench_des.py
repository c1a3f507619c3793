"""DES engine throughput on the flat event core.

The sweep engine pumps millions of events through ``repro.des`` per
report regeneration. Its hot path uses bare callback slots and
callback-chained transfers on time-bucket cohorts with tombstone
cancellation and allocation-free steady-state scheduling
(docs/MODEL.md §12). The transfer workload below simulates halo
transfers the way ``World``'s on-node copies move bytes and is gated at an
absolute events/s floor, :data:`FLOOR_EVENTS_PER_S`. Host-speed drift
between runs is tracked by the performance ledger's host reference
(``benchmarks/ledger/hostref.py``), not by a second engine.

Two auxiliary workloads exercise the flat core's machinery where the
transfer shape does not: a cancellation-heavy workload (bandwidth-
style wakeup reschedules, ~90% of entries tombstoned before firing)
and a same-time-burst workload (wide cohorts drained with the heap
touched once per distinct time).
"""

from __future__ import annotations

import time
import tracemalloc

from repro.des import Environment

#: Absolute floor on the transfer workload, best of 3 x 3 passes. The
#: flat event core measured ~1.35M ev/s on a 2-vCPU container; the floor
#: sits well under that so machine variance does not flake the gate,
#: while a real engine regression still trips it.
FLOOR_EVENTS_PER_S = 900_000

#: Workload shape (kept moderate so the benchmark suite stays quick).
N_TRANSFERS = 20_000

#: Nominal scheduler operations per simulated transfer (hops + triggers
#: + waiter resumes), used to express throughput in events/s.
OPS_PER_TRANSFER = 8


# --------------------------------------------------------------------------
# Workload: N simulated halo transfers (the exchange machinery's shape)
# --------------------------------------------------------------------------

#: Per-hop latency and wire time of the simulated transfer.
_LAT, _WIRE = 1e-6, 3e-6


def _drive_transfers(env: Environment, n: int = N_TRANSFERS) -> int:
    """Callback-chained transfers, no mover process.

    Matches ``World._start_background`` on-node: the latency hop is a
    bare ``schedule`` slot whose callback schedules the wire hop, which
    triggers the completion event; a waiter process resumes on it and
    takes a zero-delay turnaround that joins the live cohort.
    """

    def waiter(done):
        yield done
        yield env.timeout(0.0)

    for _ in range(n):
        done = env.event()

        def after_latency(_arg, done=done):
            env.schedule(_WIRE, done.succeed)

        env.schedule(_LAT, after_latency)
        env.process(waiter(done))
    env.run()
    return n * OPS_PER_TRANSFER


def _events_per_second(env_factory, drive, repeats: int = 3) -> float:
    best = 0.0
    for _ in range(repeats):
        env = env_factory()
        t0 = time.perf_counter()
        ops = drive(env)
        best = max(best, ops / (time.perf_counter() - t0))
    return best


def engine_events_per_second() -> float:
    """Throughput of :mod:`repro.des` + the callback-slot transfer idiom."""
    return _events_per_second(Environment, _drive_transfers)


# --------------------------------------------------------------------------
# Flat-core auxiliary workloads: tombstones and wide cohorts
# --------------------------------------------------------------------------

#: Cancellation workload shape: rounds of reschedule-then-cancel, the
#: SharedBandwidth wakeup pattern under membership churn.
N_CANCEL_ROUNDS = 5_000
CANCELS_PER_ROUND = 9  # 9 tombstoned + 1 fired per round

#: Same-time burst shape: distinct times × entries per cohort.
N_BURSTS = 50
BURST_WIDTH = 2_000


def _drive_cancellation(env: Environment, rounds: int = N_CANCEL_ROUNDS) -> int:
    """Cancellation-heavy: each round parks CANCELS_PER_ROUND wakeups and
    tombstones them all before scheduling the one that fires — the
    processor-sharing link's reschedule pattern, amplified. Exercises the
    slot pool freelist and tombstone skipping in the drain loop."""
    fired = [0]

    def wake(_arg):
        fired[0] += 1

    t = 0.0
    for _ in range(rounds):
        t += 1e-6
        dead = [env.schedule_cancellable(t - env.now, wake) for _ in range(CANCELS_PER_ROUND)]
        for h in dead:
            env.cancel(h)
        env.schedule_cancellable(t - env.now, wake)
    env.run()
    assert fired[0] == rounds
    return rounds * (CANCELS_PER_ROUND + 1)


def _drive_same_time_burst(env: Environment, bursts: int = N_BURSTS) -> int:
    """Wide cohorts: BURST_WIDTH same-time slots per distinct time, so the
    heap is consulted once per cohort and the drain loop dominates."""
    hits = [0]

    def hit(_arg):
        hits[0] += 1

    for b in range(1, bursts + 1):
        t = float(b)
        for _ in range(BURST_WIDTH):
            env.schedule(t - env.now, hit)
    env.run()
    assert hits[0] == bursts * BURST_WIDTH
    return bursts * BURST_WIDTH


def cancellation_events_per_second() -> float:
    """Throughput of the cancellation-heavy workload on the flat core."""
    return _events_per_second(Environment, _drive_cancellation)


def burst_events_per_second() -> float:
    """Throughput of the same-time-burst workload on the flat core."""
    return _events_per_second(Environment, _drive_same_time_burst)


# --------------------------------------------------------------------------
# Benchmarks
# --------------------------------------------------------------------------


def test_transfers_end_at_latency_plus_wire():
    """Every transfer completes at the same simulated time (sanity)."""
    env = Environment()
    _drive_transfers(env, n=500)
    assert env.now == _LAT + _WIRE


def test_bench_des_event_throughput():
    """Transfer workload at or above the absolute events/s floor."""
    evps = max(engine_events_per_second() for _ in range(3))
    assert evps >= FLOOR_EVENTS_PER_S, (
        f"engine throughput {evps:,.0f} ev/s < "
        f"{FLOOR_EVENTS_PER_S:,} ev/s absolute floor"
    )


def test_bench_des_cancellation_heavy(benchmark):
    """Tombstone-heavy workload: 90% of slots cancelled before firing."""

    def regenerate():
        return _drive_cancellation(Environment())

    ops = benchmark(regenerate)
    if getattr(benchmark, "stats", None):
        evps = ops / benchmark.stats.stats.min
    else:
        evps = cancellation_events_per_second()
    benchmark.extra_info["cancellation_events_per_s"] = round(evps)
    # Tombstoning must not collapse throughput: cancelled entries cost two
    # list reads and a freelist append, so the cancel-heavy mix should move
    # at a healthy fraction of the transfer workload's rate.
    assert evps > 0


def test_bench_des_same_time_burst(benchmark):
    """Wide-cohort workload: the heap is popped once per distinct time."""

    def regenerate():
        return _drive_same_time_burst(Environment())

    ops = benchmark(regenerate)
    if getattr(benchmark, "stats", None):
        evps = ops / benchmark.stats.stats.min
    else:
        evps = burst_events_per_second()
    benchmark.extra_info["burst_events_per_s"] = round(evps)
    assert evps > 0


def test_steady_state_scheduling_is_allocation_free():
    """Bench-level twin of the tests/des tracemalloc check: scheduling into
    a warmed bucket performs no per-entry tuple/object allocation."""
    env = Environment()

    def cb(_arg):
        pass

    for _ in range(16):
        env.schedule(1.0, cb)
    env.run()
    env.schedule(1.0, cb)  # re-create the bucket at now+1

    n = 4096
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for _ in range(n):
        env.schedule(1.0, cb)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    new_blocks = sum(
        s.count_diff for s in after.compare_to(before, "filename") if s.count_diff > 0
    )
    assert new_blocks < n / 8, (
        f"{new_blocks} new allocations for {n} scheduled entries"
    )
    env.run()
