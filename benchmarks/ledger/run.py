#!/usr/bin/env python3
"""The performance ledger: one benchmark, five workloads, per-layer spans.

A full set runs every workload, its timed passes untraced and one traced
run each, prints every metric by name with its unit, median, quartiles
and sample count, checks the outputs, and writes ``DIR/results.json`` and
``DIR/trace-<workload>.json`` (Chrome-trace format)::

    PYTHONPATH=src python benchmarks/ledger/run.py --seed 1 --out DIR

One workload for a fixed time, ending with one JSON line of end-to-end
metrics (``--trace 0``) or per-layer metrics (``--trace 1``)::

    python3 benchmarks/ledger/run.py --workload regen-cold --seed 1 \\
        --seconds 15 --trace 0

Metric names, units and bounds live in ``BENCHMARK.json`` at the root of
the repository; ``README.md`` beside this file explains them.  Results go
to ``out/`` beside this file unless ``--out`` names another directory;
scratch files go to a ``.work-*`` directory beside it, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spread(samples) -> tuple:
    """(median, q1, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = quantiles(samples, n=4)
    return median(samples), q1, q3


def _pct(values, q: int) -> float:
    """The ``q``-th percentile, interpolated within the samples' range."""
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(out, walls, lats, speed) -> dict:
    """Every end-to-end metric of one workload's untraced passes.

    Each metric is the median over passes (over set-up samples for
    ``setup_s``), except ``peak_rss_mb``, the largest.  A latency
    percentile is taken within each pass first: pooled, the 22
    experiments' distinct latencies would put the median in a gap
    between two experiments.  Its ``n`` is the number of passes, and
    ``per_pass`` the requests each percentile is taken over.
    """
    once = out.setup_once.scaled(speed)[0] if out.setup_once else 0.0
    samples = {
        "setup_s": [speed.scaled_s(*s) + once for s in out.setup],
        "wall_s": walls,
        "p50_ms": [_pct(lat, 50) for lat in lats],
        "p99_ms": [_pct(lat, 99) for lat in lats],
        "peak_rss_mb": [p.rss_mb for p in out.passes],
    }
    result = {}
    for name, vals in samples.items():
        mid, q1, q3 = spread(vals)
        result[name] = {"value": mid, "q1": q1, "q3": q3, "n": len(vals),
                        "samples": vals}
    result["peak_rss_mb"]["value"] = max(samples["peak_rss_mb"])
    result["p50_ms"]["per_pass"] = result["p99_ms"]["per_pass"] = median(map(len, lats))
    return result


def details(out, walls, lats) -> dict:
    """Rates over the median pass wall, and latency by request kind."""
    detail = {name: work / median(walls) for name, work in out.work.items()}
    by_kind = defaultdict(list)
    for p, lat in zip(out.passes, lats):
        for item, ms in zip(p.items, lat):
            if len(item) > 2:
                by_kind[item[2]].append(ms)
    for kind, values in by_kind.items():
        detail[f"{kind}_p50_ms"], detail[f"{kind}_p99_ms"] = _pct(values, 50), _pct(values, 99)
        detail[f"{kind}_samples"] = len(values)
    return detail


def per_layer(spec, out, ctx, speed, walls) -> dict:
    import layers
    import workloads as wl

    names = [m["name"] for m in spec["per_layer"]]
    run = out.traced.run
    values = layers.from_spans(names, out.traced)
    scale = speed.factor(run.t0, run.t1, run.on)
    for m in spec["per_layer"]:
        if m["unit"] in ("s", "ms", "us"):
            values[m["name"]] *= scale
        elif m["unit"] == "1/s":
            values[m["name"]] /= scale
    values["bench.trace_overhead"] = run.scaled(speed)[0] - median(walls)
    values["des.events_per_s"] = layers.des_events_per_s()
    block = 16 if ctx.quick else 48  # one rank's share of the functional grid
    values["stencil.advance_mpts_per_s"] = layers.stencil_mpts_per_s(block)
    docs = wl.warm_set(ctx.quick)
    values.update(layers.serve_codec_us(docs, [wl.direct_body(d) for d in docs]))
    first, last = out.passes[0], out.passes[-1]
    values["host.ref_ms"] = speed.probe_ms(first.t0, last.t1)
    values["host.ref_drift"] = speed.probe_ms(last.t0, last.t1) / speed.probe_ms(
        first.t0, first.t1)
    return {n: values[n] for n in names}


def run_workload(name: str, ctx, spec: dict, out_dir: Path) -> dict:
    import hostref
    import spans
    import workloads as wl

    monitor = hostref.Monitor(ctx.path("probes.json"), ctx.env())
    ctx.procs.append(monitor.proc)
    out = wl.WORKLOADS[name](ctx)
    speed = monitor.stop()
    walls, lats = (list(v) for v in zip(*(p.scaled(speed) for p in out.passes)))
    result = {
        "correct": out.failed == 0, "attempted": out.attempted,
        "failed": out.failed,
        "failed_frac": out.failed / out.attempted if out.attempted else 1.0,
        "end_to_end": end_to_end(out, walls, lats, speed),
        "detail": details(out, walls, lats),
        "raw_wall_s": [p.raw_wall_s for p in out.passes],
        "host_probe_ms": speed.probe_ms(out.passes[0].t0, out.passes[-1].t1),
    }
    if ctx.trace:
        result["per_layer"] = per_layer(spec, out, ctx, speed, walls)
        run = out.traced.run
        spans.chrome_trace(out.traced.spans, str(out_dir / f"trace-{name}.json"),
                           {"workload": name, "seed": ctx.seed,
                            "window_ns": [run.t0, run.t1]})
    return result


def environment(seed: int) -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {"seed": seed, "git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0))}


def print_table(name: str, result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={result['failed_frac']:.6g}")
    for metric, m in result["end_to_end"].items():
        per_pass = f" ({m['per_pass']:g} requests a pass)" if "per_pass" in m else ""
        print(f"  {metric:34s} {m['value']:>14.6g} {units[metric]:8s} "
              f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}{per_pass}")
    for metric, value in result.get("per_layer", {}).items():
        print(f"  {metric:34s} {value:>14.6g} {units[metric]:8s} n=1")
    for key, value in result["detail"].items():
        print(f"  ({key} {value:.6g})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None,
                    help="run one workload and end with a one-line JSON summary")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure for this long (default: the fixed pass counts)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--out", default=None, help="results and traces directory")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, one pass each (self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hostref
    import workloads as wl

    spec = load_spec()
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    if args.workload is not None and args.workload not in wl.WORKLOADS:
        print(f"ledger: unknown workload {args.workload!r}; "
              f"known: {list(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace) if args.trace is not None else args.workload is None
    out_dir = Path(args.out) if args.out else HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    # The harness and every process it starts share the ledger's CPUs,
    # the ones the host speed monitor probes.
    os.sched_setaffinity(0, hostref.cpus())
    ctx = wl.Ctx(seed=args.seed, seconds=args.seconds, trace=trace,
                 quick=args.quick, work=work)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, ctx, spec, out_dir)
            print_table(name, results[name], spec)
    finally:
        ctx.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    doc = dict(environment(args.seed), quick=args.quick, seconds=args.seconds,
               trace=trace, workloads=results)
    stem = f"results-{args.workload}" if args.workload else "results"
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    correct = all(r["correct"] for r in results.values())
    if args.workload is None:
        return 0 if correct else 1
    r = results[args.workload]
    if trace:
        kind, values = "per_layer", r["per_layer"]
    else:
        kind, values = "end_to_end", {k: v["value"] for k, v in r["end_to_end"].items()}
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(json.dumps({
        "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
