"""Shared experiment plumbing: result container, registry, parallel driver."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment", "run_experiments"]


@dataclass
class ExperimentResult:
    """A regenerated table or figure."""

    exp_id: str  # e.g. "fig9"
    title: str
    paper_claim: str  # what the paper reports, quoted/paraphrased
    columns: List[str]
    rows: List[List[Any]]
    #: series name -> {x: y} for figure-style results
    series: Dict[str, Dict[Any, float]] = field(default_factory=dict)
    notes: str = ""

    def to_text(self) -> str:
        """Plain-text table of the regenerated data.

        Tolerates ragged rows: rows shorter than the header are padded
        with blank cells, and cells beyond the last named column get a
        blank header of their own width (previously a short row raised
        ``IndexError`` while computing column widths).
        """
        headers = [str(c) for c in self.columns]
        lengths = [len(headers)] + [len(r) for r in self.rows]
        ncols = max(lengths) if lengths else 0
        headers += [""] * (ncols - len(headers))
        cells = [
            [_fmt(v) for v in r] + [""] * (ncols - len(r)) for r in self.rows
        ]
        widths = [
            max([len(headers[i])] + [len(row[i]) for row in cells])
            for i in range(ncols)
        ]
        lines = [f"== {self.exp_id}: {self.title}"]
        lines.append("  paper: " + self.paper_claim)
        header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        if self.notes:
            lines.append("note: " + self.notes)
        return "\n".join(lines)

    def best_series_at(self, x: Any) -> str:
        """Name of the highest series at abscissa ``x``.

        Exact-value ties break deterministically to the lexicographically
        smallest series name (previously: whichever series happened to be
        inserted first, which depended on sweep construction order).
        """
        candidates = [
            (pts[x], name) for name, pts in self.series.items() if x in pts
        ]
        if not candidates:
            raise KeyError(f"no series has a point at {x!r}")
        best_val = max(v for v, _name in candidates)
        return min(name for v, name in candidates if v == best_val)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


#: experiment id -> (module, description)
EXPERIMENTS: Dict[str, str] = {
    "table1": "repro.experiments.table1_coefficients",
    "table2": "repro.experiments.table2_machines",
    "fig2": "repro.experiments.fig2_loc",
    "fig3": "repro.experiments.fig3_jaguarpf",
    "fig4": "repro.experiments.fig4_hopper",
    "fig5": "repro.experiments.fig5_jaguarpf_threads",
    "fig6": "repro.experiments.fig6_hopper_threads",
    "fig7": "repro.experiments.fig7_lens_blocks",
    "fig8": "repro.experiments.fig8_yona_blocks",
    "fig9": "repro.experiments.fig9_lens_scaling",
    "fig10": "repro.experiments.fig10_yona_scaling",
    "fig11": "repro.experiments.fig11_lens_balance",
    "fig12": "repro.experiments.fig12_yona_balance",
    "sec5e": "repro.experiments.sec5e_single_node",
    "weak": "repro.experiments.weak_scaling",
    "future": "repro.experiments.future_machines",
    "convergence": "repro.experiments.convergence",
    "sensitivity": "repro.experiments.sensitivity",
    "text5b": "repro.experiments.text5b_threads",
    "protocols": "repro.experiments.protocols",
    "noise": "repro.experiments.noise_sensitivity",
    "spmv_overlap": "repro.experiments.spmv_overlap",
}


def run_experiment(exp_id: str, fast: bool = False) -> ExperimentResult:
    """Run one experiment by id."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}")
    mod = importlib.import_module(EXPERIMENTS[exp_id])
    return mod.run(fast=fast)


def run_experiments(
    exp_ids: Sequence[str],
    fast: bool = False,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    journal: Optional[str] = None,
) -> List[ExperimentResult]:
    """Regenerate several experiments, optionally in parallel.

    With ``jobs > 1`` the experiments fan out over a thread pool in this
    process while every simulated config is executed by the shared task
    scheduler (:mod:`repro.sched`) and its ``jobs`` worker processes.
    Concurrent experiments *coalesce* on the scheduler: a config that
    several figures share (e.g. the best Lens configs of fig9/fig11/sec5e)
    is simulated exactly once per session, and every result is
    bit-identical to the ``jobs=1`` serial path.  Results are returned in
    the order of ``exp_ids`` regardless of completion order.  Unknown ids
    raise :class:`KeyError` before any work is dispatched.

    ``cache_dir`` installs the content-addressed run cache
    (:mod:`repro.cache`) for the regeneration — in this process and in
    every scheduler worker; configs already simulated under the current
    model version are replayed from disk, bit-identically. An active cache
    that already serves ``cache_dir`` is kept, with its index and counters,
    so per-experiment calls share one handle. ``None`` leaves the current
    cache configuration (usually: no cache) untouched.

    ``journal`` attaches a resumable result journal to the scheduler this
    call creates (a directory — see :mod:`repro.sched.journal`); each
    batch commits it before returning, and a killed regeneration
    restarted with the same journal replays finished configs.  Ignored
    when a scheduler is already installed (its journal, if any, stays in
    charge).

    An already-installed process-wide scheduler
    (:func:`repro.sched.configure`) is reused as-is; otherwise one is
    created for the duration of this call.
    """
    exp_ids = list(exp_ids)
    for exp_id in exp_ids:
        if exp_id not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    from repro import cache as run_cache

    active = run_cache.active_cache()
    if cache_dir is not None and (active is None or not active.serves(cache_dir)):
        run_cache.configure(cache_dir)
    if journal is None and (jobs == 1 or len(exp_ids) <= 1):
        return [run_experiment(e, fast=fast) for e in exp_ids]

    from concurrent.futures import ThreadPoolExecutor

    from repro.sched import active_scheduler, scheduled

    def _fan_out() -> List[ExperimentResult]:
        with ThreadPoolExecutor(
            max_workers=min(jobs, len(exp_ids)), thread_name_prefix="exp"
        ) as pool:
            return list(pool.map(lambda e: run_experiment(e, fast=fast), exp_ids))

    if active_scheduler() is not None:
        return _fan_out()
    with scheduled(jobs, cache_dir=cache_dir, journal=journal):
        return _fan_out()
