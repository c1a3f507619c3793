"""Host speed monitor: how fast each CPU runs, sampled through a whole run.

A shared virtual machine's CPUs change speed by tens of percent within
seconds, each on its own (other tenants share the host).  This program
runs beside the workload, one thread pinned to each CPU the ledger uses.
Every ``PERIOD_NS`` each thread times a fixed pure-Python probe, which
uses none of the program's code, by its own CPU time: time spent waiting
for the CPU does not count, only how fast the CPU runs.  The probe is a
tiny discrete-event loop (generators resumed from a ``heapq`` event
queue), the instruction mix of the simulator: a slow spell of the host
slows it about as much as it slows the program, which a plain arithmetic
loop does not (it under-corrected the regenerations).  The harness
reports every time scaled to the probe's nominal speed,
``raw * NOMINAL_NS / probe_ns``, averaged over the probes taken on the
CPUs that did the work while it ran.  A change to the program cannot move
the probe, so the scaling cancels host drift without hiding the program's
own speed.  The probes take about 1.5% of each CPU, the same on every run.

    python hostref.py OUT.json CPU [CPU ...]   # probes until stdin closes
"""

from __future__ import annotations

import bisect
import heapq
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import List, Sequence

now = time.perf_counter_ns

#: Probe interval on each CPU: a fraction of the host's speed spells
#: (a second or more), short enough for a 50 ms item to see a probe.
PERIOD_NS = 20_000_000

#: The probe's CPU time (ns) on the ledger host in its fast state: scaled
#: times read as times at that speed.
NOMINAL_NS = 270_000

#: The CPUs the ledger uses: load is sized for two.
LEDGER_CPUS = 2


def _steps(n: int):
    for i in range(n):
        yield i


def probe() -> int:
    """CPU nanoseconds of a fixed event loop: 16 processes of 40 steps."""
    t = time.thread_time_ns()
    queue = [(0.0, k, _steps(40)) for k in range(16)]
    heapq.heapify(queue)
    while queue:
        when, k, proc = heapq.heappop(queue)
        for _ in proc:
            heapq.heappush(queue, (when + (k + 1) * 1e-6, k, proc))
            break
    return time.thread_time_ns() - t


def cpus() -> List[int]:
    """The CPUs the ledger and its children run on."""
    return sorted(os.sched_getaffinity(0))[:LEDGER_CPUS]


class Monitor:
    """The monitor program, started before a workload and stopped after it."""

    def __init__(self, out: Path, env: dict):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(out), *map(str, cpus())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        if not self.proc.stdout.readline():
            raise RuntimeError("host speed monitor did not start")

    def stop(self) -> "Speed":
        self.proc.communicate("", timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"host speed monitor failed ({self.proc.returncode})")
        return Speed(json.loads(self.out.read_text()))


class Speed:
    """The probes of one run: scale factors for any interval on any CPUs."""

    def __init__(self, probes: List[list]):
        # [t_ns, cpu, probe_ns]; the thread CPU clock can read 0 across a probe.
        self.probes = sorted(p for p in probes if p[2] > 0)
        self._by_cpus = {}

    def _series(self, on: Sequence[int]) -> tuple:
        key = tuple(sorted(on))
        if key not in self._by_cpus:
            ts, cum = [], [0.0]
            for t, cpu, ns in self.probes:
                if cpu in key:
                    ts.append(t)
                    cum.append(cum[-1] + NOMINAL_NS / ns)
            if not ts:
                raise RuntimeError(f"no host speed probes on CPUs {key}")
            self._by_cpus[key] = ts, cum
        return self._by_cpus[key]

    def factor(self, t0: int, t1: int, on: Sequence[int]) -> float:
        """Mean speed of CPUs ``on`` over ``[t0, t1]`` relative to nominal.

        The window is widened by one probe period each side, so a short
        item still sees the probes around it.
        """
        ts, cum = self._series(on)
        lo = bisect.bisect_left(ts, t0 - PERIOD_NS)
        hi = bisect.bisect_right(ts, t1 + PERIOD_NS)
        if hi == lo:  # no probe near: take the nearest one
            lo = min(max(lo - 1, 0), len(ts) - 1)
            hi = lo + 1
        return (cum[hi] - cum[lo]) / (hi - lo)

    def scaled_s(self, t0: int, t1: int, on: Sequence[int]) -> float:
        """``[t0, t1]`` in seconds at the nominal speed of CPUs ``on``."""
        return (t1 - t0) / 1e9 * self.factor(t0, t1, on)

    def probe_ms(self, t0: int, t1: int) -> float:
        """Median probe time over ``[t0, t1]``, all CPUs."""
        i, j = bisect.bisect_left(self.probes, [t0]), bisect.bisect_left(self.probes, [t1])
        return median(p[2] for p in self.probes[i:j] or self.probes) / 1e6


def _sample(cpu: int, records: list, stop: threading.Event) -> None:
    os.sched_setaffinity(0, {cpu})
    due = now()
    while not stop.is_set():
        ns = probe()
        records.append([now(), cpu, ns])
        due += PERIOD_NS
        wait = (due - now()) / 1e9
        if wait > 0:
            stop.wait(wait)
        else:
            due = now()


def main(argv) -> int:
    out, on = argv[0], [int(c) for c in argv[1:]]
    records: list = []
    stop = threading.Event()
    threads = [threading.Thread(target=_sample, args=(c, records, stop)) for c in on]
    for t in threads:
        t.start()
    print("started", flush=True)
    sys.stdin.read()
    stop.set()
    for t in threads:
        t.join()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
