"""One pass of a ledger workload, in a fresh interpreter.

The harness (``run.py``) starts this program once per cold pass, so every
in-process memo (``lru_cache`` in the partitioner, the block model, the
SpMV problem builder) starts empty, as it does for a CLI user::

    python child.py <mode> <args.json>

The program imports what its mode needs and loads its inputs, and prints
``{"ready": true}``: that interval is the set-up time the harness measures.
It then waits for a line on stdin.  EOF instead of a line ends a
set-up-only sample.  On ``go`` it runs the pass, checks the outputs, and
prints one JSON result line; times in it are ``perf_counter_ns`` stamps,
which the harness scales by the host speed monitor (``hostref.py``).  With
``spans_dir`` set in the arguments it records spans (see ``spans.py``)
inside the timed region only.

The harness pins the program to one CPU, so the monitor's probes on that
CPU measure the speed it ran at.  A sweep unpins itself before its batch:
its two workers use both CPUs.

Mode ``serve`` is different: it runs the ``serve`` CLI command until
SIGTERM, with spans recorded for its whole life when asked.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

now = time.perf_counter_ns


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for.

    Our own peak comes from ``VmHWM``: ``ru_maxrss`` would also count the
    harness's resident set at the moment it forked us, kept across exec.
    """
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def matches_golden(result, want) -> bool:
    """An experiment result equals its golden dump entry at ``repr`` precision."""
    return (
        result.columns == want["columns"]
        and [[repr(v) for v in row] for row in result.rows] == want["rows"]
        and {
            name: {repr(k): repr(v) for k, v in pts.items()}
            for name, pts in result.series.items()
        } == want["series"]
    )


def same_result(a, b) -> bool:
    return (
        a.elapsed_s == b.elapsed_s
        and a.phases == b.phases
        and a.comm_stats == b.comm_stats
    )


class Regen:
    """``experiment <ids> --fast`` through ``run_experiments(jobs=1)``."""

    def __init__(self, args):
        self.args = args

    def run(self, rec):
        from repro import experiments

        ids, cache_dir = self.args["ids"], self.args["cache_dir"]
        results, items = {}, []
        if rec:
            rec.enabled = True
        t0 = now()
        for i, exp_id in enumerate(ids):
            t = now()
            # The first call installs the run cache, as the CLI does.
            results[exp_id] = experiments.run_experiments(
                [exp_id], fast=True, jobs=1, cache_dir=None if i else cache_dir
            )[0]
            items.append([t, now()])
        t1 = now()
        if rec:
            rec.enabled = False
        with open(self.args["golden"], encoding="utf-8") as fh:
            golden = json.load(fh)
        failed = sum(not matches_golden(results[e], golden[e]) for e in ids)
        return {"t0": t0, "t1": t1, "items": items,
                "attempted": len(ids), "failed": failed}


class Sweep:
    """One batch through ``Scheduler.map`` with a sharded journal."""

    def __init__(self, args):
        from repro.sched import Scheduler
        from repro.serve.protocol import config_from_dict

        with open(args["configs"], encoding="utf-8") as fh:
            self.cfgs = [config_from_dict(d) for d in json.load(fh)]
        self.Scheduler = Scheduler
        self.args = args

    def run(self, rec):
        from repro import cache
        from repro.core.runner import run

        a = self.args
        os.sched_setaffinity(0, a["cpus"])
        sched = self.Scheduler(jobs=a["jobs"], cache_dir=a["cache_dir"],
                               journal=a["journal"])
        if rec:
            rec.enabled = True
        t0 = now()
        results = sched.map(self.cfgs, return_exceptions=True)
        t1 = now()
        if rec:
            rec.enabled = False
        stats = sched.stats()
        wall_times = list(sched.wall_times)
        sched.close()  # joins the workers, which dump their spans
        out = {"t0": t0, "t1": t1, "lat_ms": [w * 1e3 for w in wall_times],
               "sched": stats, "sched_wall_s": sum(wall_times), "jobs": a["jobs"]}
        if a.get("replay"):
            # Reopen the journal and map the same batch: every task replays.
            with self.Scheduler(jobs=a["jobs"], journal=a["journal"]) as again:
                t = now()
                again.map(self.cfgs)
                out["replay_per_s"] = len(self.cfgs) / ((now() - t) / 1e9)
        cache.configure(None)
        failed = sum(isinstance(r, BaseException) for r in results)
        for i in a["check"]:
            r = results[i]
            if not isinstance(r, BaseException) and not same_result(r, run(self.cfgs[i])):
                failed += 1
        out.update(attempted=len(self.cfgs) + len(a["check"]), failed=failed)
        return out


class Functional:
    """Verified functional advection runs against the serial reference."""

    def __init__(self, args):
        from repro.core.config import RunConfig
        from repro.machines import get_machine

        d, steps = tuple(args["domain"]), args["steps"]
        self.cfgs = [
            RunConfig(machine=get_machine(args["machine"]), implementation=impl,
                      cores=args["cores"], threads_per_task=args["threads"],
                      steps=steps, domain=d, functional=True, network="full")
            for impl in args["impls"]
        ]
        self.args = args

    def reference(self):
        import numpy as np
        from repro.stencil.coefficients import tensor_product_coefficients
        from repro.stencil.grid import Grid3D, allocate_field, gaussian_initial_condition
        from repro.stencil.kernels import advance, interior

        c = self.cfgs[0]
        grid = Grid3D(c.domain)
        u = allocate_field(grid.n)
        interior(u)[...] = gaussian_initial_condition(grid, sigma=c.sigma)
        u = advance(u, tensor_product_coefficients(c.velocity, c.nu), steps=c.steps)
        return np.ascontiguousarray(interior(u))

    def run(self, rec):
        import numpy as np

        from repro.core import runner

        for cfg in self.cfgs:  # warm-up pass: allocator, arena, imports
            runner.run(cfg)
        ref = self.reference()
        a = self.args
        passes, attempted, failed, rss, items = 0, 0, 0, None, []
        t_start = now()
        if rec:
            rec.enabled = True
        t0 = now()
        while True:
            for cfg in self.cfgs:
                t = now()
                r = runner.run(cfg)
                items.append([t, now()])
                attempted += 1
                # Slice by slice: whole-field temporaries would fragment the
                # heap and grow the peak RSS with the number of passes.
                failed += not all(np.allclose(a, b, rtol=1e-12, atol=0.0)
                                  for a, b in zip(r.global_field, ref))
            passes += 1
            rss = rss or peak_rss_mb()  # after a fixed amount of work
            elapsed = (now() - t_start) / 1e9
            if a["seconds"] is None:
                if passes >= a["passes"]:
                    break
            elif elapsed >= a["seconds"]:
                break
        t1 = now()
        if rec:
            rec.enabled = False
        return {"t0": t0, "t1": t1, "items": items, "attempted": attempted,
                "failed": failed, "rss_mb": rss}


def serve(args) -> int:
    from repro.cli import main as cli_main

    rec = _recorder(args)
    if rec:
        rec.enabled = True
    try:
        return cli_main(args["argv"])
    finally:
        if rec:
            rec.enabled = False
            rec.dump()


def _recorder(args):
    if not args.get("spans_dir"):
        return None
    from spans import SpanRecorder, install

    rec = SpanRecorder(args["spans_dir"])
    install(rec)
    return rec


MODES = {"regen": Regen, "sweep": Sweep, "functional": Functional}


def main(argv) -> int:
    import importlib

    from spans import TARGET_MODULES

    mode, args_path = argv
    with open(args_path, encoding="utf-8") as fh:
        args = json.load(fh)
    for name in TARGET_MODULES:
        importlib.import_module(name)
    if mode == "serve":
        return serve(args)
    job = MODES[mode](args)
    rec = _recorder(args)
    print(json.dumps({"ready": True}), flush=True)
    if not sys.stdin.readline():
        return 0
    out = job.run(rec)
    if rec:
        rec.dump()
    out.setdefault("rss_mb", peak_rss_mb())
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
