"""The five ledger workloads: inputs from the seed, timed passes, traced run.

Each workload function takes a :class:`Ctx` and returns an
:class:`Outcome`: set-up samples, one :class:`Pass` per timed pass (run
untraced), correctness counts, and, when ``ctx.trace`` is set, a
:class:`Traced` run whose spans give the per-layer split.  Times are kept
as ``perf_counter_ns`` stamps together with the CPUs that did the work;
the harness scales them by the host speed monitor (``hostref.py``) once
the workload ends.  Load comes from this one harness process: at most two
client connections (serve) and two scheduler workers (sweep).  Every input
that varies is drawn from ``ctx.seed``; the program only ever sees the
generated configs.
"""

from __future__ import annotations

import functools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import hostref
import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = ROOT / "tests" / "experiments" / "golden_dump_fast.json"

now = time.perf_counter_ns

#: Set-up is sampled at least this many times per run (median reported).
SETUP_SAMPLES = 3

#: Experiments of a ``--quick`` regeneration (cheap, but cache-heavy).
QUICK_IDS = ("table1", "fig3", "fig9", "sec5e")

#: Scheduler workers of the sweep and client connections of serve-mixed.
SWEEP_JOBS = 2
SERVE_CLIENTS = 2

#: Sweep configs checked bit-for-bit against a direct in-process run.
SWEEP_CHECKS = 32

#: Longest wait for one child pass (the harness exits within 180 s).
CHILD_TIMEOUT_S = 150.0


class LedgerError(RuntimeError):
    """A workload could not run (not a wrong answer: those are counted)."""


@dataclass
class Ctx:
    seed: int
    seconds: Optional[float]  # None: the workload's fixed pass count
    trace: bool
    quick: bool
    work: Path  # scratch directory inside the checkout
    procs: List[subprocess.Popen] = field(default_factory=list)
    cpus: List[int] = field(default_factory=hostref.cpus)
    _n: int = 0

    @property
    def work_cpu(self) -> int:
        """The CPU a single-process pass is pinned to."""
        return self.cpus[-1]

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:03d}-{stem}"

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.work)
        env.pop("REPRO_CACHE_DIR", None)
        return env

    def loop(self, passes: int, body) -> None:
        """Call ``body(i)`` for the fixed pass count or for ``seconds``."""
        start, i = time.perf_counter(), 0
        while True:
            body(i)
            i += 1
            if self.seconds is None:
                if i >= (1 if self.quick else passes):
                    return
            elif time.perf_counter() - start >= self.seconds:
                return

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


@dataclass
class Pass:
    """One timed pass as measured; every stamp is ``perf_counter_ns``.

    The clock is shared by every process on the host.  ``items`` are the
    pass's requests, ``[t0, t1]`` or ``[t0, t1, kind]``.  When ``serial``
    they ran one after another and the pass's wall is their sum, which
    leaves out the checks between them; otherwise it is ``[t0, t1]``.
    ``lat_ms`` holds request latencies the pass could not stamp (raw).
    """

    t0: int
    t1: int
    on: Sequence[int]  # CPUs that did the work
    rss_mb: float
    items: List[list] = field(default_factory=list)
    serial: bool = True
    lat_ms: List[float] = field(default_factory=list)

    @classmethod
    def of_child(cls, r: dict, on: Sequence[int]) -> "Pass":
        return cls(r["t0"], r["t1"], on, r["rss_mb"], r.get("items", []),
                   lat_ms=r.get("lat_ms", []))

    @property
    def raw_wall_s(self) -> float:
        if self.serial and self.items:
            return sum(i[1] - i[0] for i in self.items) / 1e9
        return (self.t1 - self.t0) / 1e9

    def scaled(self, speed: hostref.Speed) -> tuple:
        """(wall s, request latencies ms) at the nominal host speed.

        A stamped request is scaled by the speed while it ran, the rest of
        the pass by the mean speed over ``[t0, t1]``.
        """
        block = speed.factor(self.t0, self.t1, self.on)
        if self.items:
            lat = [speed.scaled_s(i[0], i[1], self.on) * 1e3 for i in self.items]
        else:
            lat = [ms * block for ms in self.lat_ms]
        if self.serial and self.items:
            return sum(lat) / 1e3, lat
        return (self.t1 - self.t0) / 1e9 * block, lat


@dataclass
class Traced:
    spans: List[tuple]
    run: Pass  # the traced pass itself
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    setup: List[tuple] = field(default_factory=list)  # (t0, t1, CPUs) per sample
    setup_once: Optional[Pass] = None  # one-off priming, added to the median
    passes: List[Pass] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traced: Optional[Traced] = None
    #: Work of one pass per detail rate, e.g. {"runs_per_s": 2184}: the
    #: rate printed is that work over the median pass wall.
    work: Dict[str, float] = field(default_factory=dict)

    def count(self, result: dict) -> None:
        self.attempted += int(result["attempted"])
        self.failed += int(result["failed"])


class Child:
    """A ``child.py`` process: spawned, timed until ready, then run once.

    It is pinned to ``ctx.work_cpu``, so the monitor's probes there give
    the speed it ran at.
    """

    def __init__(self, ctx: Ctx, mode: str, args: dict):
        args_path = ctx.path(f"{mode}-args.json")
        args_path.write_text(json.dumps(dict(args, cpus=ctx.cpus)))
        self.log_path = ctx.path(f"{mode}.log")
        self.on = [ctx.work_cpu]
        with open(self.log_path, "w") as log:
            t0 = now()
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, str(args_path)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                text=True, cwd=ROOT, env=ctx.env(),
                preexec_fn=functools.partial(os.sched_setaffinity, 0, self.on),
            )
        ctx.procs.append(self.proc)
        line = self.proc.stdout.readline()
        self.setup = (t0, now(), self.on)
        if not line.startswith('{"ready"'):
            self.proc.kill()
            raise LedgerError(f"{mode} child never became ready: {self._log()}")

    def _log(self) -> str:
        return self.log_path.read_text()[-2000:]

    def result(self) -> dict:
        out, _ = self.proc.communicate("go\n", timeout=CHILD_TIMEOUT_S)
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise LedgerError(f"child failed ({self.proc.returncode}): {self._log()}")
        return json.loads(lines[-1])

    def close(self) -> None:
        self.proc.communicate("", timeout=60)


def _top_up_setup(ctx: Ctx, out: Outcome, mode: str, args: dict) -> None:
    while len(out.setup) < SETUP_SAMPLES:
        child = Child(ctx, mode, args)
        out.setup.append(child.setup)
        child.close()


def _traced_child(ctx: Ctx, out: Outcome, mode: str, args: dict, on=None) -> tuple:
    spans_dir = ctx.path("spans")
    spans_dir.mkdir()
    child = Child(ctx, mode, dict(args, spans_dir=str(spans_dir)))
    r = child.result()
    out.count(r)
    run = Pass.of_child(r, on or child.on)
    return r, Traced(spanlib.load(str(spans_dir)), run)


# -- regen-cold / regen-warm --------------------------------------------------

def _regen_args(ctx: Ctx, cache_dir: Path) -> dict:
    from repro.experiments import EXPERIMENTS

    ids = list(QUICK_IDS) if ctx.quick else list(EXPERIMENTS)
    return {"ids": ids, "golden": str(GOLDEN), "cache_dir": str(cache_dir)}


def _regen_pass(ctx: Ctx, out: Outcome, args: dict) -> None:
    child = Child(ctx, "regen", args)
    out.setup.append(child.setup)
    r = child.result()
    out.count(r)
    out.passes.append(Pass.of_child(r, child.on))


def regen_cold(ctx: Ctx) -> Outcome:
    """All fast experiments on an empty cache, each pass in a fresh process."""
    out = Outcome()

    def one(i):
        cache_dir = ctx.path("cache")
        _regen_pass(ctx, out, _regen_args(ctx, cache_dir))
        shutil.rmtree(cache_dir, ignore_errors=True)

    ctx.loop(4, one)
    _top_up_setup(ctx, out, "regen", _regen_args(ctx, ctx.path("cache")))
    if ctx.trace:
        cache_dir = ctx.path("cache")
        _, out.traced = _traced_child(ctx, out, "regen", _regen_args(ctx, cache_dir))
        shutil.rmtree(cache_dir, ignore_errors=True)
    return out


def regen_warm(ctx: Ctx) -> Outcome:
    """The same regeneration against a cache primed during set-up."""
    out = Outcome()
    args = _regen_args(ctx, ctx.path("cache"))
    prime = Child(ctx, "regen", args)
    r = prime.result()
    out.setup_once = Pass.of_child(r, prime.on)
    out.count(r)
    ctx.loop(15, lambda i: _regen_pass(ctx, out, args))
    _top_up_setup(ctx, out, "regen", args)
    if ctx.trace:
        _, out.traced = _traced_child(ctx, out, "regen", args)
    return out


# -- sweep-cold ---------------------------------------------------------------

@functools.lru_cache(maxsize=2)
def config_space(quick: bool) -> List[dict]:
    """Feasible advection configs: catalog machines x impls x cores x threads x T.

    The structure is fixed (so every seed does the same amount of work);
    the seed only picks each config's perturbation seed.
    """
    from repro.core.config import RunConfig
    from repro.core.registry import CPU_KEYS, GPU_KEYS
    from repro.machines.catalog import MACHINES
    from repro.sched import validate_config

    docs = []
    machines = sorted(set(MACHINES.values()), key=lambda m: m.name)
    for m in machines:
        impls = CPU_KEYS + (GPU_KEYS if m.gpu is not None else ())
        threads = [t for t in (1, 2, 4, 6, 8, 12, 16) if m.node.cores % t == 0]
        for impl in impls:
            for cores in m.figure_core_counts[:4]:
                for th in threads:
                    for T in ((1, 2, 3) if impl.startswith("hybrid") else (1,)):
                        for n in (96, 128):
                            try:
                                validate_config(RunConfig(
                                    machine=m, implementation=impl, cores=cores,
                                    threads_per_task=th, box_thickness=T,
                                    domain=(n, n, n)))
                            except (ValueError, KeyError):
                                continue
                            docs.append({"machine": m.name, "impl": impl,
                                         "cores": cores, "threads": th,
                                         "thickness": T, "domain": n, "steps": 2})
    return docs[::16] if quick else docs


def _seeded(docs: List[dict], rng: random.Random) -> List[dict]:
    seeds = rng.sample(range(1, 1 << 40), len(docs))
    return [dict(d, seed=s, noise="low") for d, s in zip(docs, seeds)]


def _sweep_args(ctx: Ctx, space: List[dict], batch: int) -> dict:
    rng = random.Random(f"{ctx.seed}:sweep:{batch}")
    configs = ctx.path("configs.json")
    configs.write_text(json.dumps(_seeded(space, rng)))
    return {
        "configs": str(configs), "jobs": SWEEP_JOBS,
        "cache_dir": str(ctx.path("cache")), "journal": str(ctx.path("journal")),
        "check": sorted(rng.sample(range(len(space)), min(SWEEP_CHECKS, len(space)))),
    }


def sweep_cold(ctx: Ctx) -> Outcome:
    """~2,000 distinct seeded configs through Scheduler(jobs=2), empty cache."""
    out = Outcome()
    space = config_space(ctx.quick)

    def one(i):
        child = Child(ctx, "sweep", _sweep_args(ctx, space, i))
        out.setup.append(child.setup)
        r = child.result()
        out.count(r)
        # The child unpins itself for the batch: its two workers use both CPUs.
        out.passes.append(Pass.of_child(r, ctx.cpus))

    out.work["runs_per_s"] = len(space)
    ctx.loop(3, one)
    _top_up_setup(ctx, out, "sweep", _sweep_args(ctx, space, 0))
    if ctx.trace:
        args = dict(_sweep_args(ctx, space, len(out.passes)), replay=True)
        r, out.traced = _traced_child(ctx, out, "sweep", args, on=ctx.cpus)
        out.traced.counters = _sched_counters(r["sched"], r["sched_wall_s"], r["jobs"])
        out.traced.counters["journal.replay_per_s"] = r["replay_per_s"]
    return out


def _sched_counters(stats: dict, wall_s: float, jobs: int) -> Dict[str, float]:
    out = {f"sched.{k}": stats[k] for k in
           ("simulated", "cache_hits", "journal_hits", "coalesced", "failed", "retries")}
    out.update({"sched.submitted": stats["submitted"], "sched.wall_s": wall_s,
                "sched.jobs": jobs})
    return out


# -- serve-mixed --------------------------------------------------------------

#: Requests per client per pass, the cold share, and the warm-set size.
SERVE_BLOCK = 500
SERVE_COLD_SHARE = 0.1
SERVE_WARM_SET = 32


def warm_set(quick: bool) -> List[dict]:
    """The warm configs: evenly spaced over the sweep space, so they validate.

    The set is fixed: a seeded sample would change the cost of the cold
    requests drawn from it from seed to seed.
    """
    space = config_space(quick=False)
    n = 8 if quick else SERVE_WARM_SET
    return space[len(space) // (2 * n)::len(space) // n][:n]


def direct_body(doc: dict) -> dict:
    """The result body the daemon must serve for ``doc``: a direct run."""
    from repro.core.runner import run
    from repro.serve import protocol

    r = run(protocol.config_from_dict(doc))
    body = protocol.result_to_dict(r)
    body["gflops"] = r.gflops
    body["seconds_per_step"] = r.seconds_per_step
    return body


class Daemon:
    """A ``serve --jobs 1 --journal`` daemon in a child process."""

    def __init__(self, ctx: Ctx, spans_dir: Optional[Path] = None):
        self.ready = ctx.path("ready.json")
        argv = ["serve", "--port", "0", "--jobs", "1",
                "--journal", str(ctx.path("journal")),
                "--cache-dir", str(ctx.path("cache")),
                "--ready-file", str(self.ready)]
        args_path = ctx.path("serve-args.json")
        args_path.write_text(json.dumps({
            "argv": argv, "spans_dir": str(spans_dir) if spans_dir else None,
        }))
        self.log_path = ctx.path("serve.log")
        with open(self.log_path, "w") as log:
            self.t_spawn = now()
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), "serve", str(args_path)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                cwd=ROOT, env=ctx.env(),
            )
        ctx.procs.append(self.proc)
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise LedgerError(f"daemon died: {self.log_path.read_text()[-2000:]}")
            try:
                return int(json.loads(self.ready.read_text())["port"])
            except (OSError, ValueError, KeyError):
                time.sleep(0.005)
        raise LedgerError("daemon never became ready")

    def prime(self, docs: List[dict]) -> int:
        """Simulate the warm set once; returns the stamp when it is done."""
        from repro.serve.client import ServeClient

        with ServeClient("127.0.0.1", self.port, timeout_s=60) as c:
            for doc in docs:
                c.run(doc)
        return now()

    def stats(self) -> dict:
        from repro.serve.client import ServeClient

        with ServeClient("127.0.0.1", self.port, timeout_s=60) as c:
            return c.stats()

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise LedgerError("no VmHWM for the daemon")

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class ServeLoad:
    """Closed-loop request blocks from the seed: 90% warm, 10% cold."""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.warm = warm_set(quick)
        self.block = 60 if quick else SERVE_BLOCK
        self.next_seed = random.Random(f"{seed}:serve:cold").randrange(1, 1 << 40)

    def sequences(self, pass_no: int) -> List[List[tuple]]:
        seqs = []
        for client in range(SERVE_CLIENTS):
            rng = random.Random(f"{self.seed}:serve:{pass_no}:{client}")
            cold = set(rng.sample(range(self.block), int(self.block * SERVE_COLD_SHARE)))
            seq = []
            for k in range(self.block):
                i = rng.randrange(len(self.warm))
                if k in cold:
                    self.next_seed += 1
                    doc = dict(self.warm[i], seed=self.next_seed, noise="low")
                    seq.append(("cold", doc))
                else:
                    seq.append(("warm", self.warm[i]))
            seqs.append(seq)
        return seqs


def run_block(port: int, seqs: List[List[tuple]]) -> tuple:
    """Each sequence on its own connection, closed loop; returns (t0, t1, replies).

    A reply is ``(kind, t_sent, t_answered, doc, body)``.
    """
    from repro.serve.client import ServeClient, ServeError

    replies: List[list] = [[] for _ in seqs]
    barrier = threading.Barrier(len(seqs) + 1, timeout=60)

    def client(i):
        with ServeClient("127.0.0.1", port, timeout_s=60) as c:
            barrier.wait()
            for kind, doc in seqs[i]:
                t = now()
                try:
                    body = c.run(doc)
                except ServeError as exc:
                    body = exc
                replies[i].append((kind, t, now(), doc, body))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(seqs))]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = now()
    for t in threads:
        t.join(timeout=150)
    t1 = now()
    if any(t.is_alive() for t in threads):
        raise LedgerError("a serve client did not finish")
    return t0, t1, [r for rs in replies for r in rs]


def _check_replies(replies, expected: Dict[str, dict], cold_checks: list) -> int:
    failed = 0
    for kind, _t0, _t1, doc, body in replies:
        if not isinstance(body, dict) or not body.get("ok"):
            failed += 1
        elif kind == "warm":
            failed += body["result"] != expected[json.dumps(doc, sort_keys=True)]
        elif len(cold_checks) < 16:
            cold_checks.append((doc, body["result"]))
    return failed


def serve_mixed(ctx: Ctx) -> Outcome:
    """A serve daemon under two closed-loop clients, warm-heavy with cold misses."""
    out = Outcome()
    load = ServeLoad(ctx.seed, ctx.quick)
    expected = {json.dumps(d, sort_keys=True): direct_body(d) for d in load.warm}
    daemon = None
    for k in range(SETUP_SAMPLES):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(ctx)
        out.setup.append((daemon.t_spawn, daemon.prime(load.warm), ctx.cpus))
    cold_checks: list = []

    def block(i, daemon) -> Pass:
        seqs = load.sequences(i)
        t0, t1, replies = run_block(daemon.port, seqs)
        out.attempted += sum(len(s) for s in seqs)
        out.failed += sum(len(s) for s in seqs) - len(replies)
        out.failed += _check_replies(replies, expected, cold_checks)
        # The memo grows with every cold reply, so the peak is read after
        # the first block: a fixed amount of work.
        rss = out.passes[0].rss_mb if out.passes else daemon.peak_rss_mb()
        return Pass(t0, t1, ctx.cpus, rss,
                    [[a, b, kind] for kind, a, b, *_ in replies], serial=False)

    out.work["qps"] = SERVE_CLIENTS * load.block
    ctx.loop(40, lambda i: out.passes.append(block(i, daemon)))
    daemon.stop()
    if ctx.trace:
        spans_dir = ctx.path("spans")
        spans_dir.mkdir()
        daemon = Daemon(ctx, spans_dir)
        daemon.prime(load.warm)
        run = block(len(out.passes), daemon)
        stats = daemon.stats()
        daemon.stop()
        out.traced = Traced(spanlib.load(str(spans_dir)), run, _serve_counters(stats))
    out.attempted += len(cold_checks)
    out.failed += sum(direct_body(doc) != body for doc, body in cold_checks)
    return out


def _serve_counters(stats: dict) -> Dict[str, float]:
    service = stats["service"]
    c = service["counters"]
    out = {f"serve.{k}": c[k] for k in (
        "requests", "warm_memo_hits", "warm_cache_hits", "coalesced",
        "admitted", "rejected_busy", "timeouts")}
    for name, hist in (("server_mean_ms", "all"), ("server_warm_mean_ms", "warm")):
        h = service["latency"][hist]
        out[f"serve.{name}"] = h["sum_s"] / h["count"] * 1e3 if h["count"] else 0.0
    sched = stats["scheduler"]
    out.update(_sched_counters(sched["counters"], sched["wall"]["total_s"],
                               sched["jobs"]))
    return out


# -- functional ---------------------------------------------------------------

FUNCTIONAL_IMPLS = ("bulk", "nonblocking", "hybrid_overlap", "gpu_streams")


def _functional_args(ctx: Ctx, passes: int, seconds: Optional[float]) -> dict:
    n, steps = (32, 2) if ctx.quick else (96, 8)
    return {"machine": "lens", "cores": 16, "threads": 2,
            "impls": list(FUNCTIONAL_IMPLS), "domain": [n, n, n],
            "steps": steps, "passes": passes, "seconds": seconds}


def functional(ctx: Ctx) -> Outcome:
    """Verified functional runs: Lens, 8 ranks, full network, 96^3, 8 steps."""
    out = Outcome()
    passes = 1 if ctx.quick else 10
    child = Child(ctx, "functional", _functional_args(ctx, passes, ctx.seconds))
    out.setup.append(child.setup)
    r = child.result()
    out.count(r)
    items, k = r["items"], len(FUNCTIONAL_IMPLS)
    for i in range(0, len(items), k):
        part = items[i:i + k]
        out.passes.append(Pass(part[0][0], part[-1][1], child.on, r["rss_mb"], part))
    args = _functional_args(ctx, 1, None)
    _top_up_setup(ctx, out, "functional", args)
    n, steps = args["domain"][0], args["steps"]
    out.work["mpts_per_s"] = n ** 3 * steps * len(FUNCTIONAL_IMPLS) / 1e6
    if ctx.trace:
        _, out.traced = _traced_child(ctx, out, "functional", args)
    return out


#: Workload name -> its function, in the order a full set runs them.
WORKLOADS = {
    "regen-cold": regen_cold,
    "regen-warm": regen_warm,
    "sweep-cold": sweep_cold,
    "serve-mixed": serve_mixed,
    "functional": functional,
}
