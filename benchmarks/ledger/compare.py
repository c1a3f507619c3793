#!/usr/bin/env python3
"""Parent-versus-change verdict over two sets of ledger runs.

    python benchmarks/ledger/compare.py A B [--claim WORKLOAD:METRIC] [--layers]

``A`` (the parent) and ``B`` (the change) are each a ``results*.json``
file written by ``run.py`` or a directory searched for them; every file is
one run.  For each (workload, end-to-end metric) the verdict gives both
medians and quartiles and checks the change against the metric's bound
from ``BENCHMARK.json``:

* ``ok``: B's median is no worse than A's by more than the bound;
* ``REGRESSION``: it is worse by more than the bound;
* ``unresolved``: the run-to-run spread (quartile distance over median)
  of either side is wider than the bound, unless every run of B beats
  every run of A (then ``better``).

A side with a single run is judged on that run's per-pass samples.
Above each workload's rows a ``host`` line gives the ratio B/A of the
host speed monitor's median probe time and of the raw (unscaled) pass
walls.  ``host drift`` marks a workload whose raw walls moved by about
the host's ratio: the machine was slower or faster, and the verdicts,
taken on scaled times, rest on the scaling.  The note changes no verdict.
``--claim`` prints the pair win fraction for one named metric; a gain
holds when B wins at least nine tenths of the pairs (ties count for
neither) and the medians differ by more than A's quartile distance.  Exit
status 1 means at least one ``REGRESSION``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

from run import ROOT, spread


def load_runs(path: str) -> list:
    p = Path(path)
    files = [p] if p.is_file() else sorted(p.rglob("results*.json"))
    if not files:
        raise SystemExit(f"compare: no results*.json under {path}")
    return [json.loads(f.read_text()) for f in files]


def e2e_values(runs: list, workload: str, metric: str) -> list:
    """One value per run, or the single run's per-pass samples."""
    found = [r["workloads"][workload]["end_to_end"][metric] for r in runs
             if workload in r["workloads"]]
    if len(found) == 1:
        return list(found[0]["samples"])
    return [m["value"] for m in found]


def layer_values(runs: list, workload: str, metric: str) -> list:
    return [r["workloads"][workload]["per_layer"][metric] for r in runs
            if "per_layer" in r["workloads"].get(workload, {})]


def verdict(a: list, b: list, bound: float, lower: bool) -> tuple:
    ma, q1a, q3a = spread(a)
    mb, q1b, q3b = spread(b)
    worse = ((mb - ma) if lower else (ma - mb)) / ma
    width = max((q3a - q1a) / ma, (q3b - q1b) / mb)
    beats = all((y < x) if lower else (y > x) for x in a for y in b)
    if beats:
        status = "better"
    elif width > bound:
        status = "unresolved"
    else:
        status = "REGRESSION" if worse > bound else "ok"
    return status, worse, width


def host_line(runs_a, runs_b, workload, bound) -> str:
    """Host speed and raw wall ratios B/A, and whether the walls followed the host."""
    def ratio(value):
        a, b = ([value(r["workloads"][workload]) for r in runs if workload in r["workloads"]]
                for runs in (runs_a, runs_b))
        return median(b) / median(a)

    host = ratio(lambda w: w["host_probe_ms"])
    raw = ratio(lambda w: median(w["raw_wall_s"]))
    drift = abs(host - 1) >= bound / 2 and abs(raw - host) <= abs(host - 1) / 2
    return (f"{workload:12s} host: probe B/A {host:.3f}, raw wall B/A {raw:.3f}"
            + ("  host drift" if drift else ""))


def claim(a: list, b: list, lower: bool) -> str:
    pairs = list(zip(a, b))
    wins = sum((y < x) if lower else (y > x) for x, y in pairs)
    ties = sum(x == y for x, y in pairs)
    decided = len(pairs) - ties
    frac = wins / decided if decided else 0.0
    ma, q1a, q3a = spread(a)
    mb = spread(b)[0]
    holds = frac >= 0.9 and abs(mb - ma) > q3a - q1a
    return (f"pairs={len(pairs)} wins={wins} ties={ties} win_fraction={frac:.3f} "
            f"median A={ma:.6g} B={mb:.6g} A quartile distance={q3a - q1a:.6g} "
            f"-> gain {'holds' if holds else 'NOT met'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="parent: results file or directory")
    ap.add_argument("b", help="change: results file or directory")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    ap.add_argument("--layers", action="store_true",
                    help="also list per-layer medians (no bounds)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    workloads = [w["name"] for w in spec["workloads"]
                 if any(w["name"] in r["workloads"] for r in runs_a)
                 and any(w["name"] in r["workloads"] for r in runs_b)]
    print(f"A: {len(runs_a)} run(s)  B: {len(runs_b)} run(s)")
    print(f"{'workload':12s} {'metric':12s} {'A median':>12s} {'A q1..q3':>23s} "
          f"{'B median':>12s} {'B q1..q3':>23s} {'worse':>8s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    regressions = 0
    wall_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    for w in workloads:
        print(host_line(runs_a, runs_b, w, wall_bound))
        for m in spec["end_to_end"]:
            lower = m["better"] == "lower"
            a, b = e2e_values(runs_a, w, m["name"]), e2e_values(runs_b, w, m["name"])
            status, worse, width = verdict(a, b, m["bound"], lower)
            ma, q1a, q3a = spread(a)
            mb, q1b, q3b = spread(b)
            regressions += status == "REGRESSION"
            print(f"{w:12s} {m['name']:12s} {ma:12.6g} {q1a:11.5g}..{q3a:<11.5g} "
                  f"{mb:12.6g} {q1b:11.5g}..{q3b:<11.5g} {worse:+8.2%} {width:7.2%} "
                  f"{m['bound']:6.2f}  {status}")
    if args.layers:
        for w in workloads:
            for m in spec["per_layer"]:
                a = layer_values(runs_a, w, m["name"])
                b = layer_values(runs_b, w, m["name"])
                if a and b:
                    ma, mb = median(a), median(b)
                    ratio = f"{mb / ma:8.3f}" if ma else "       -"
                    print(f"{w:12s} {m['name']:38s} {ma:12.6g} {mb:12.6g} "
                          f"{ratio} {m['unit']}")
    if args.claim:
        w, name = args.claim.split(":", 1)
        metric = next(m for m in spec["end_to_end"] + spec["per_layer"]
                      if m["name"] == name)
        get = e2e_values if metric in spec["end_to_end"] else layer_values
        print(f"claim {w}:{name}: " + claim(get(runs_a, w, name), get(runs_b, w, name),
                                             metric["better"] == "lower"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
