"""Command-line interface.

::

    advection-repro list                       # implementations + machines
    advection-repro run --machine yona --impl hybrid_overlap \\
        --cores 12 --threads 6 --thickness 3
    advection-repro experiment fig9            # regenerate one figure/table
    advection-repro experiment fig9 fig10 --jobs 4   # several, in parallel
    advection-repro experiment all --jobs 8    # the full report
    advection-repro experiments                # list experiment ids
    advection-repro sweep --machine yona --impl hybrid_overlap \\
        --cores 12 24 48 --jobs 4              # tuning sweep, parallel
    advection-repro tune --machine yona --impl hybrid_overlap --cores 48
    advection-repro trace --machine yona --impl hybrid_overlap --out t.json
    advection-repro trace --experiments all --fast --check
    advection-repro serve --port 7753 --jobs 4 --journal serve.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import RunConfig
from repro.core.registry import IMPLEMENTATIONS
from repro.core.runner import run as run_config
from repro.experiments import EXPERIMENTS, run_experiment
from repro.machines import MACHINES, ProgressModel, get_machine

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="advection-repro",
        description="Reproduction of White & Dongarra (IPPS 2011) on a simulated machine",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list implementations and machines")
    sub.add_parser("experiments", help="list experiment ids")

    runp = sub.add_parser("run", help="run one configuration")
    runp.add_argument("--machine", required=True, help="jaguarpf|hopper|lens|yona")
    runp.add_argument("--impl", required=True,
                      help="implementation key of the selected workload "
                           "(see 'list'); validated against --workload")
    _add_workload_flags(runp)
    runp.add_argument("--cores", type=int, required=True)
    runp.add_argument("--threads", type=int, default=1)
    runp.add_argument("--thickness", type=int, default=1)
    runp.add_argument("--steps", type=int, default=2)
    runp.add_argument("--domain", type=int, default=420, help="grid points per dimension")
    runp.add_argument("--network", choices=("mirror", "full"), default="mirror")
    runp.add_argument(
        "--functional", action="store_true",
        help="allocate real fields and verify against the analytic solution "
             "(small domains + full network only)",
    )
    runp.add_argument(
        "--trace", action="store_true",
        help="print an execution timeline of the representative rank",
    )
    runp.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="enable the seeded perturbation layer (OS jitter, network "
             "variance, faults); same seed -> bit-identical results",
    )
    runp.add_argument(
        "--noise", metavar="SPEC", default=None,
        help="noise profile: a preset (off/low/medium/high), 'machine' for "
             "the machine's calibration, 'preset*scale', or knob=value "
             "pairs (see repro.perturb.spec); requires --seed; default "
             "with --seed: 'machine'",
    )
    runp.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="Monte-Carlo replication: run N independently seeded replicas "
             "and report mean/std/p95/ci95 (requires --seed)",
    )
    _add_progress_flag(runp)

    expp = sub.add_parser("experiment", help="regenerate tables/figures")
    expp.add_argument("ids", metavar="id", nargs="+",
                      choices=sorted(EXPERIMENTS) + ["all"],
                      help="experiment ids, or 'all' for the full report")
    expp.add_argument("--fast", action="store_true", help="trimmed sweep")
    expp.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="regenerate experiments concurrently: every "
                           "simulated config goes through the shared task "
                           "scheduler with N worker processes (deduplicated "
                           "across figures, bit-identical to --jobs 1)")
    expp.add_argument("--plot", action="store_true",
                      help="also render the series as an ASCII chart")
    expp.add_argument("--json", metavar="PATH", default=None,
                      help="write the full result as JSON (with several ids "
                           "the id is suffixed onto the file name)")
    expp.add_argument("--csv", metavar="PATH", default=None,
                      help="write the series as long-form CSV (suffixed as "
                           "for --json)")
    expp.add_argument("--journal", metavar="PATH", default=None,
                      help="resumable journal directory for the "
                           "regeneration (an old single-file journal there "
                           "is imported once); a killed regeneration "
                           "restarted with the same journal replays its "
                           "finished configs")
    expp.add_argument("--no-cache", action="store_true",
                      help="always re-simulate; do not read or write the "
                           "run-result cache")
    expp.add_argument("--cache-dir", metavar="DIR", default=None,
                      help="run-result cache directory (default: "
                           "$REPRO_CACHE_DIR or .repro-cache); shared "
                           "configs are simulated once per model version "
                           "and replayed bit-identically afterwards")

    sweepp = sub.add_parser(
        "sweep",
        help="sweep the tuning space over core counts through the shared "
             "task scheduler (deduplicated, cached, parallel with --jobs)",
    )
    sweepp.add_argument("--machine", required=True, help="jaguarpf|hopper|lens|yona")
    sweepp.add_argument("--impl", nargs="+", required=True, metavar="IMPL",
                        help="implementation keys of the selected workload, "
                             "or 'all'")
    _add_workload_flags(sweepp)
    sweepp.add_argument("--cores", type=int, nargs="+", required=True,
                        metavar="N", help="total core counts to sweep")
    sweepp.add_argument("--thicknesses", metavar="T1,T2,...", default=None,
                        help="box thicknesses for the hybrid implementations "
                             "(default: the paper's §V-E set)")
    sweepp.add_argument("--steps", type=int, default=2)
    sweepp.add_argument("--network", choices=("mirror", "full"), default="mirror")
    sweepp.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scheduler worker processes; each distinct "
                             "config is simulated at most once per session "
                             "and results are bit-identical to --jobs 1")
    sweepp.add_argument("--journal", metavar="PATH", default=None,
                        help="resumable journal directory: an interrupted "
                             "sweep restarts from its completed tasks (an "
                             "old single-file journal there is imported "
                             "once)")
    sweepp.add_argument("--no-cache", action="store_true",
                        help="always re-simulate; do not read or write the "
                             "run-result cache")
    sweepp.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="run-result cache directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    sweepp.add_argument("--dry-run", action="store_true",
                        help="expand the cross-product and print config/"
                             "dedup counts and the warm/cold split (batched "
                             "cache+journal probes) without running anything")
    sweepp.add_argument("--fabric", metavar="DIR", default=None,
                        help="cooperate with concurrent sweep processes "
                             "through a shared fabric directory (journal "
                             "+ shard leases); any number of "
                             "processes may run the same command against "
                             "the same DIR and split the work")
    sweepp.add_argument("--owner", metavar="NAME", default=None,
                        help="lease owner identity in --fabric mode "
                             "(default: host:pid)")
    sweepp.add_argument("--lease-ttl", type=float, default=30.0, metavar="S",
                        help="seconds before a dead scheduler's shard lease "
                             "may be stolen by a peer (--fabric mode)")
    sweepp.add_argument("--shards", type=int, default=16, metavar="N",
                        help="task shards the batch is partitioned into in "
                             "--fabric mode (1-256)")
    _add_progress_flag(sweepp)

    servep = sub.add_parser(
        "serve",
        help="long-running query daemon: NDJSON + HTTP/1.1 on one "
             "listener, warm queries answered from cache without a "
             "worker, identical in-flight queries coalesced",
    )
    servep.add_argument("--host", default="127.0.0.1",
                        help="TCP bind address (default 127.0.0.1)")
    servep.add_argument("--port", type=int, default=0, metavar="P",
                        help="TCP port (0 = ephemeral; printed and "
                             "written to --ready-file)")
    servep.add_argument("--socket", metavar="PATH", default=None,
                        help="also (or instead, with --no-tcp) listen on "
                             "a unix socket")
    servep.add_argument("--no-tcp", action="store_true",
                        help="unix socket only (requires --socket)")
    servep.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scheduler worker processes for cold queries")
    servep.add_argument("--max-inflight", type=int, default=8, metavar="N",
                        help="admission bound: concurrent cold jobs before "
                             "new cold queries get a structured 'busy' "
                             "error / HTTP 429 (warm queries are never "
                             "rejected)")
    servep.add_argument("--timeout", type=float, default=300.0, metavar="S",
                        help="default per-request timeout in seconds "
                             "(requests may override with 'timeout')")
    servep.add_argument("--journal", metavar="PATH", default=None,
                        help="journal directory, committed before each "
                             "reply: simulations survive SIGTERM and replay "
                             "warm on the next start")
    servep.add_argument("--no-cache", action="store_true",
                        help="serve without the on-disk run cache")
    servep.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="run-result cache directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    servep.add_argument("--ready-file", metavar="PATH", default=None,
                        help="write {host, port, socket, pid} as JSON once "
                             "listening (test/CI discovery of ephemeral "
                             "ports)")
    servep.add_argument("--drain-grace", type=float, default=30.0,
                        metavar="S",
                        help="seconds SIGTERM waits for in-flight jobs "
                             "before closing anyway")

    valp = sub.add_parser("validate", help="run every correctness oracle")
    valp.add_argument("--impl", default="all",
                      choices=["all"] + sorted(IMPLEMENTATIONS))

    tunep = sub.add_parser("tune", help="auto-tune one implementation")
    tunep.add_argument("--machine", required=True)
    tunep.add_argument("--impl", required=True, choices=sorted(IMPLEMENTATIONS))
    tunep.add_argument("--cores", type=int, required=True)
    tunep.add_argument("--strategy", choices=("greedy", "exhaustive"), default="greedy")
    _add_progress_flag(tunep)

    tracep = sub.add_parser(
        "trace",
        help="trace one run (Chrome-trace/Perfetto export, overlap metrics, "
             "invariant checker) or check every run of whole experiments",
    )
    tracep.add_argument("--impl",
                        help="implementation to trace (single-run mode)")
    _add_workload_flags(tracep)
    tracep.add_argument("--machine", help="jaguarpf|hopper|lens|yona")
    tracep.add_argument("--cores", type=int, default=None,
                        help="total cores (default: one full node)")
    tracep.add_argument("--threads", type=int, default=1)
    tracep.add_argument("--thickness", type=int, default=1)
    tracep.add_argument("--steps", type=int, default=2)
    tracep.add_argument("--domain", type=int, default=420,
                        help="grid points per dimension")
    tracep.add_argument("--network", choices=("mirror", "full"), default="mirror")
    tracep.add_argument("--out", metavar="PATH", default=None,
                        help="write Chrome-trace JSON (open at "
                             "https://ui.perfetto.dev)")
    tracep.add_argument("--ascii", action="store_true",
                        help="print the ASCII timeline")
    tracep.add_argument("--check", action="store_true",
                        help="run the trace-invariant checker and fail on "
                             "violations")
    tracep.add_argument("--experiments", nargs="+", metavar="ID", default=None,
                        help="instead of a single run, trace and check every "
                             "run these experiments perform ('all' = full "
                             "report); implies --check")
    tracep.add_argument("--fast", action="store_true",
                        help="trimmed sweeps in --experiments mode")
    tracep.add_argument("--seed", type=int, default=None, metavar="S",
                        help="trace under the seeded perturbation layer; in "
                             "--experiments mode every run is swept under "
                             "(seed, --noise)")
    tracep.add_argument("--noise", metavar="SPEC", default=None,
                        help="noise profile (see 'run --noise'); requires "
                             "--seed; default with --seed: 'machine' for a "
                             "single run, 'medium' in --experiments mode")
    _add_progress_flag(tracep)
    return p


def _add_workload_flags(parser) -> None:
    parser.add_argument(
        "--workload", metavar="KEY", default="advection",
        help="timed program family (see 'list'; default: advection, the "
             "paper's stencil)",
    )
    parser.add_argument(
        "--param", metavar="NAME=VALUE", action="append", default=[],
        dest="params",
        help="workload-specific problem knob (repeatable), e.g. "
             "--workload spmv --param rows=65536 --param band=16",
    )


def _parse_workload_params(pairs: List[str]):
    """``--param NAME=VALUE`` flags as ``workload_params`` tuples."""
    out = []
    for text in pairs:
        name, sep, raw = text.partition("=")
        if not sep or not name:
            raise ValueError(f"--param expects NAME=VALUE, got {text!r}")
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        out.append((name, value))
    return tuple(out)


def _add_progress_flag(parser) -> None:
    parser.add_argument(
        "--progress", metavar="MODEL", default=None,
        choices=[m.value for m in ProgressModel],
        help="override the machine's MPI progress model "
             "(manual-poll | progress-thread | hardware-offload)",
    )


def _apply_progress(machine, progress: Optional[str]):
    """The machine with its interconnect's progress model overridden."""
    if not progress:
        return machine
    from dataclasses import replace

    return replace(
        machine,
        interconnect=replace(machine.interconnect, progress=ProgressModel(progress)),
    )


def _cmd_list() -> int:
    from repro.workloads import WORKLOADS, workload_keys

    print("implementations:")
    for key, impl in IMPLEMENTATIONS.items():
        print(f"  {key:16s} {impl.section:6s} {impl.title}")
    print("workloads (--workload KEY; implementations per workload):")
    for wkey in workload_keys():
        wl = WORKLOADS[wkey]
        impls = ", ".join(sorted(wl.implementations))
        print(f"  {wkey:16s} {wl.title}")
        print(f"  {'':16s}   impls: {impls}")
    print("machines:")
    seen = set()
    for m in MACHINES.values():
        if m.name in seen:
            continue
        seen.add(m.name)
        gpu = m.gpu.name if m.gpu else "-"
        print(f"  {m.name:10s} nodes={m.compute_nodes:<6d} cores/node={m.node.cores:<3d} gpu={gpu}")
    return 0


def _resolve_noise(args, machine, default: str):
    """``(seed, NoiseSpec|None)`` from ``--seed``/``--noise``.

    Raises ``SystemExit``-friendly ``ValueError`` on misuse (``--noise``
    or ``--replicas`` without ``--seed``, unknown spec).
    """
    from repro.perturb import NoiseSpec

    seed = getattr(args, "seed", None)
    text = getattr(args, "noise", None)
    if text is not None and seed is None:
        raise ValueError("--noise requires --seed")
    if getattr(args, "replicas", 1) > 1 and seed is None:
        raise ValueError("--replicas requires --seed")
    if seed is None:
        return None, None
    if text is None:
        text = default
    if text == "machine":
        if machine is None:
            raise ValueError("--noise machine needs a single --machine")
        return seed, NoiseSpec.for_machine(machine.name)
    return seed, NoiseSpec.parse(text)


def _cmd_run(args) -> int:
    machine = _apply_progress(get_machine(args.machine), args.progress)
    try:
        seed, noise = _resolve_noise(args, machine, default="machine")
        params = _parse_workload_params(args.params)
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    cfg = RunConfig(
        machine=machine,
        implementation=args.impl,
        cores=args.cores,
        threads_per_task=args.threads,
        box_thickness=args.thickness,
        steps=args.steps,
        domain=(args.domain,) * 3,
        network="full" if args.functional else args.network,
        functional=args.functional,
        trace=args.trace,
        seed=seed,
        noise=noise,
        workload=args.workload,
        workload_params=params,
    )
    try:
        if args.replicas > 1:
            from repro.core.runner import run_replicated

            result = run_replicated(cfg, args.replicas)
        else:
            result = run_config(cfg)
    except KeyError as exc:
        # Unknown workload/implementation: the two-axis registry error.
        print(f"run: {exc.args[0]}", file=sys.stderr)
        return 2
    print(result.summary())
    if result.stats is not None:
        s = result.stats
        print(
            f"  {int(s['n'])} replicas: mean={s['mean'] * 1e3:.3f} ms  "
            f"std={s['std'] * 1e3:.3f} ms  p95={s['p95'] * 1e3:.3f} ms  "
            f"ci95=±{s['ci95'] * 1e3:.3f} ms"
        )
    if result.tracer is not None:
        t0, t1 = result.tracer.span()
        window_end = min(t1, t0 + result.seconds_per_step)
        print(result.tracer.timeline_text(width=100, window=(t0, window_end)))
        busy_k = result.tracer.busy_time("gpu-kernel")
        busy_h = result.tracer.busy_time("host")
        if busy_k:
            hidden = result.tracer.overlap_time("host", "gpu-kernel")
            print(
                f"  gpu-kernel busy {busy_k * 1e3:.2f} ms, host busy "
                f"{busy_h * 1e3:.2f} ms, overlapped {hidden * 1e3:.2f} ms"
            )
    if result.overlap is not None:
        print("  " + result.overlap.summary())
    if result.norms is not None:
        print("  norms vs analytic: " + "  ".join(f"{k}={v:.3e}" for k, v in result.norms.items()))
    if result.phases:
        total = sum(result.phases.values())
        breakdown = "  ".join(f"{k}={v * 1e3:.2f}ms" for k, v in sorted(result.phases.items()))
        print(f"  host-side phase breakdown ({total * 1e3:.2f} ms total): {breakdown}")
    return 0


def _suffixed(path: str, exp_id: str, multiple: bool) -> str:
    """Insert ``-{exp_id}`` before the extension when exporting several ids."""
    if not multiple:
        return path
    import os.path

    root, ext = os.path.splitext(path)
    return f"{root}-{exp_id}{ext}"


def _resolve_cache_dir(args) -> Optional[str]:
    """Cache directory for an ``experiment`` invocation (None = disabled)."""
    import os

    from repro.cache import DEFAULT_CACHE_DIR

    if getattr(args, "no_cache", False):
        return None
    explicit = getattr(args, "cache_dir", None)
    return explicit or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def _print_cache_stats(cache_dir: str) -> None:
    """The ``run cache:`` line (write errors only when there were any)."""
    from repro.cache import stats

    s = stats()
    looked_up = s["hits"] + s["misses"]
    rate = 100.0 * s["hits"] / looked_up if looked_up else 0.0
    errors = f", {s['write_errors']} write errors" if s["write_errors"] else ""
    print(
        f"run cache: {s['hits']} hits / {s['misses']} misses "
        f"({rate:.0f}% hit rate), {s['stores']} stored{errors} -> {cache_dir}"
    )


def _cmd_experiment(args) -> int:
    from repro.experiments import run_experiments

    ids = list(dict.fromkeys(  # dedupe, keep order
        sorted(EXPERIMENTS) if "all" in args.ids else args.ids
    ))
    cache_dir = _resolve_cache_dir(args)
    results = run_experiments(ids, fast=args.fast, jobs=getattr(args, "jobs", 1),
                              cache_dir=cache_dir,
                              journal=getattr(args, "journal", None))
    multiple = len(results) > 1
    for result in results:
        print(result.to_text())
        if getattr(args, "plot", False) and result.series:
            from repro.report import ascii_plot

            print()
            print(ascii_plot(result.series, title=result.title))
        if getattr(args, "json", None):
            from repro.export import write_json

            path = _suffixed(args.json, result.exp_id, multiple)
            write_json(result, path)
            print(f"wrote {path}")
        if getattr(args, "csv", None):
            from repro.export import write_csv

            path = _suffixed(args.csv, result.exp_id, multiple)
            write_csv(result, path)
            print(f"wrote {path}")
    if cache_dir is not None:
        _print_cache_stats(cache_dir)
    return 0


def _sweep_groups(args, machine, thicknesses):
    """Expand the sweep cross-product: one feasible-config group per
    (impl, cores) point, plus total/infeasible counts.

    Every sweep mode (run, ``--dry-run``, ``--fabric``) shares this
    expansion, so the printed tables stay byte-identical across modes.
    """
    from repro.perf.sweep import tuning_configs
    from repro.sched import validate_config
    from repro.workloads import get_workload

    workload = getattr(args, "workload", "advection")
    params = _parse_workload_params(getattr(args, "params", []))
    impls = (
        sorted(get_workload(workload).implementations) if "all" in args.impl
        else list(dict.fromkeys(args.impl))
    )
    groups = []
    total = skipped = 0
    for impl in impls:
        for cores in args.cores:
            cfgs = tuning_configs(
                machine, impl, cores,
                thicknesses=thicknesses, steps=args.steps,
                network=args.network,
                workload=workload, workload_params=params,
            )
            feasible = []
            for cfg in cfgs:
                total += 1
                try:
                    validate_config(cfg)
                except ValueError:
                    skipped += 1
                    continue
                feasible.append(cfg)
            groups.append((impl, cores, feasible))
    return groups, total, skipped


def _print_sweep_table(rows) -> None:
    print(f"{'impl':16s} {'cores':>6s} {'threads':>7s} {'T':>3s} "
          f"{'GF':>8s} {'ms/step':>8s}")
    for impl, cores, best in rows:
        if best is None:
            print(f"{impl:16s} {cores:6d} {'-':>7s} {'-':>3s} {'-':>8s} {'-':>8s}")
            continue
        print(
            f"{impl:16s} {cores:6d} {best.config.threads_per_task:7d} "
            f"{best.config.box_thickness:3d} {best.gflops:8.2f} "
            f"{best.seconds_per_step * 1e3:8.3f}"
        )


def _sweep_dry_run(args, groups, total, skipped, cache_dir) -> int:
    """Expand, dedup and probe the sweep — run nothing.

    The warm/cold split comes from *batched existence probes* of the
    memoized cache keys against the run cache and (when given) the
    journal: no payloads are read, no counters move, nothing simulates.
    """
    import os

    from repro.cache import RunCache, config_key
    from repro.sched import ShardedJournal

    distinct = {}
    for _impl, _cores, feasible in groups:
        for cfg in feasible:
            distinct.setdefault(config_key(cfg), cfg)
    warm_keys = set()
    if cache_dir is not None and os.path.isdir(cache_dir):
        cache = RunCache(cache_dir)
        warm_keys.update(k for k in distinct if cache.has_key(k))
    if args.journal and os.path.exists(args.journal):
        warm_keys |= ShardedJournal(args.journal).warm_keys(distinct)
    warm = len(warm_keys)
    print(
        f"dry-run: configs={total} infeasible={skipped} "
        f"feasible={total - skipped} distinct={len(distinct)} "
        f"warm={warm} cold={len(distinct) - warm}"
    )
    for impl, cores, feasible in groups:
        print(f"  {impl:16s} {cores:6d} configs={len(feasible)}")
    return 0


def _sweep_fabric(args, groups, cache_dir) -> int:
    """Run the sweep cooperatively with concurrent peer processes."""
    from repro.sched import run_fabric

    if not 1 <= args.shards <= 256:
        print(f"sweep: --shards must be in [1, 256], got {args.shards}",
              file=sys.stderr)
        return 2
    flat = [cfg for _impl, _cores, feasible in groups for cfg in feasible]
    fr = run_fabric(
        flat, args.fabric,
        owner=args.owner, jobs=args.jobs, nshards=args.shards,
        ttl=args.lease_ttl, cache_dir=cache_dir,
    )
    rows = []
    it = iter(fr.results)
    for impl, cores, feasible in groups:
        results = [next(it) for _ in feasible]
        best = max(results, key=lambda r: r.gflops) if results else None
        rows.append((impl, cores, best))
    _print_sweep_table(rows)
    print(fr.summary())
    return 0


def _cmd_sweep(args) -> int:
    """Tuning sweep over (impl, cores) points through the scheduler."""
    from repro import cache as run_cache
    from repro.perf.sweep import sweep_configs
    from repro.sched import scheduled

    machine = _apply_progress(get_machine(args.machine), args.progress)
    if args.jobs < 1:
        print(f"sweep: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    thicknesses = None
    if args.thicknesses:
        try:
            thicknesses = tuple(int(t) for t in args.thicknesses.split(","))
        except ValueError:
            print(f"sweep: bad --thicknesses {args.thicknesses!r}", file=sys.stderr)
            return 2
    cache_dir = _resolve_cache_dir(args)
    try:
        groups, total, skipped = _sweep_groups(args, machine, thicknesses)
    except KeyError as exc:
        print(f"sweep: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        return _sweep_dry_run(args, groups, total, skipped, cache_dir)
    if args.fabric:
        return _sweep_fabric(args, groups, cache_dir)
    if cache_dir is not None:
        run_cache.configure(cache_dir)

    rows = []
    with scheduled(args.jobs, cache_dir=cache_dir, journal=args.journal) as sched:
        for impl, cores, feasible in groups:
            results = sweep_configs(feasible)
            best = max(results, key=lambda r: r.gflops) if results else None
            rows.append((impl, cores, best))
        summary = sched.summary()

    _print_sweep_table(rows)
    print(summary)
    if cache_dir is not None:
        _print_cache_stats(cache_dir)
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.server import serve

    if args.no_tcp and not args.socket:
        print("serve: --no-tcp requires --socket", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"serve: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.max_inflight < 1:
        print(f"serve: --max-inflight must be >= 1, got {args.max_inflight}",
              file=sys.stderr)
        return 2
    return serve(
        host=args.host,
        port=None if args.no_tcp else args.port,
        socket_path=args.socket,
        jobs=args.jobs,
        cache_dir=_resolve_cache_dir(args),
        journal=args.journal,
        max_inflight=args.max_inflight,
        timeout_s=args.timeout,
        ready_file=args.ready_file,
        drain_grace_s=args.drain_grace,
    )


def _cmd_validate(args) -> int:
    from repro.validation import validate_implementation

    keys = sorted(IMPLEMENTATIONS) if args.impl == "all" else [args.impl]
    failed = 0
    for key in keys:
        report = validate_implementation(key)
        print(report.to_text())
        failed += 0 if report.passed else 1
    return 1 if failed else 0


def _cmd_tune(args) -> int:
    from repro.autotune import exhaustive_search, greedy_search

    search = greedy_search if args.strategy == "greedy" else exhaustive_search
    res = search(
        _apply_progress(get_machine(args.machine), args.progress),
        args.impl, args.cores,
    )
    print(
        f"best: threads={res.best_point.threads_per_task} "
        f"thickness={res.best_point.box_thickness} block={res.best_point.block} "
        f"-> {res.best_gflops:.2f} GF ({res.evaluations} evaluations)"
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import check_trace, write_chrome_trace

    if args.experiments:
        return _cmd_trace_experiments(args)
    if not args.impl or not args.machine:
        print("trace: --impl and --machine are required (or use --experiments)",
              file=sys.stderr)
        return 2
    machine = _apply_progress(get_machine(args.machine), args.progress)
    cores = args.cores if args.cores is not None else machine.node.cores
    try:
        seed, noise = _resolve_noise(args, machine, default="machine")
        params = _parse_workload_params(args.params)
    except ValueError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    cfg = RunConfig(
        machine=machine,
        implementation=args.impl,
        cores=cores,
        threads_per_task=args.threads,
        box_thickness=args.thickness,
        steps=args.steps,
        domain=(args.domain,) * 3,
        network=args.network,
        trace=True,
        seed=seed,
        noise=noise,
        workload=args.workload,
        workload_params=params,
    )
    try:
        result = run_config(cfg)
    except KeyError as exc:
        print(f"trace: {exc.args[0]}", file=sys.stderr)
        return 2
    print(result.summary())
    if result.overlap is not None:
        print("  " + result.overlap.summary())
    if args.ascii and result.tracer is not None:
        t0, t1 = result.tracer.span()
        window_end = min(t1, t0 + result.seconds_per_step)
        print(result.tracer.timeline_text(width=100, window=(t0, window_end)))
    if args.out and result.tracer is not None:
        write_chrome_trace(
            result.tracer, args.out,
            metadata={"overlap": result.overlap.to_dict() if result.overlap else None},
        )
        print(f"wrote {args.out} (open at https://ui.perfetto.dev)")
    if args.check and result.tracer is not None:
        violations = check_trace(result.tracer)
        if violations:
            for v in violations:
                print(f"INVARIANT VIOLATION: {v}", file=sys.stderr)
            return 1
        print("trace invariants: OK")
    return 0


def _cmd_trace_experiments(args) -> int:
    """Trace-and-check every run the named experiments perform."""
    from repro.experiments import run_experiments
    from repro.obs import check_trace, write_chrome_trace
    from repro.obs.capture import capture_traces

    ids = list(dict.fromkeys(
        sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    ))
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"trace: unknown experiment id(s): {unknown}", file=sys.stderr)
        return 2
    try:
        # Experiments span machines, so 'machine' is not resolvable here;
        # the perturbed sweep defaults to the "medium" profile.
        seed, noise = _resolve_noise(args, None, default="medium")
    except ValueError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    state = {"runs": 0, "violations": [], "first_written": False}

    def observe(result):
        state["runs"] += 1
        for v in check_trace(result.tracer):
            state["violations"].append(
                f"{result.config.implementation}"
                f"@{result.config.machine.name}: {v}"
            )
        if args.out and not state["first_written"]:
            state["first_written"] = True
            write_chrome_trace(result.tracer, args.out)

    from contextlib import nullcontext

    if seed is not None:
        from repro.perturb import forced_noise

        noise_ctx = forced_noise(seed, noise)
    else:
        noise_ctx = nullcontext()
    with noise_ctx, capture_traces(observe):
        # jobs=1: the capture hook is process-global and must see every run.
        run_experiments(ids, fast=args.fast, jobs=1, cache_dir=None)
    perturbed = f" under seed={seed} noise" if seed is not None else ""
    print(
        f"checked {state['runs']} traced run(s) across {len(ids)} "
        f"experiment(s){perturbed}"
    )
    if args.out and state["first_written"]:
        print(f"wrote {args.out} (open at https://ui.perfetto.dev)")
    if state["violations"]:
        for v in state["violations"]:
            print(f"INVARIANT VIOLATION: {v}", file=sys.stderr)
        return 1
    print("trace invariants: OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "experiments":
        for eid, mod in EXPERIMENTS.items():
            print(f"  {eid:8s} {mod}")
        return 0
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
