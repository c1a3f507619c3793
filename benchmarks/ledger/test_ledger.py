"""Self-test of the ledger: every workload at ``--quick`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/ledger

Runs one quick full set (about half a minute) and checks what later
performance changes rely on: every metric declared in ``BENCHMARK.json``
is emitted and nothing else, names are well formed, spans nest, self
times are never negative, the regeneration passes are covered by spans,
and ``compare.py`` fails on a regression.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def ledger(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=240, cwd=cwd,
    )


@pytest.fixture(scope="module")
def full_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    proc = ledger("--quick", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return out, json.loads((out / "results.json").read_text())


def test_spec_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_every_declared_metric_and_nothing_else(full_set):
    _, doc = full_set
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, r in doc["workloads"].items():
        assert list(r["end_to_end"]) == E2E, name
        assert list(r["per_layer"]) == LAYERS, name
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, name
        assert all(m["value"] > 0 for m in r["end_to_end"].values()), name


def test_results_record_the_environment(full_set):
    _, doc = full_set
    assert doc["seed"] == 7
    for key in ("git_sha", "python", "numpy", "nproc"):
        assert doc[key], key


def test_spans_nest_and_self_times_are_not_negative(full_set):
    out, doc = full_set
    for name in doc["workloads"]:
        events = json.loads((out / f"trace-{name}.json").read_text())["traceEvents"]
        assert events, name
        by_id = {(e["pid"], e["args"]["id"]): e for e in events}
        child_us = {}
        for e in events:
            parent = e["args"]["parent"]
            if not parent:
                continue
            p = by_id[(e["pid"], parent)]
            assert p["tid"] == e["tid"], (name, e)
            assert p["ts"] <= e["ts"] + 1e-3, (name, e)
            assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3, (name, e)
            key = (e["pid"], parent)
            child_us[key] = child_us.get(key, 0.0) + e["dur"]
        for key, us in child_us.items():
            assert us <= by_id[key]["dur"] + 1e-3, (name, by_id[key])


def test_regen_passes_are_covered_by_spans(full_set):
    _, doc = full_set
    for name in ("regen-cold", "regen-warm"):
        layers = doc["workloads"][name]["per_layer"]
        assert layers["bench.span_coverage"] >= 0.95, name
        assert layers["runner.calls"] > 0 and layers["cache.get_calls"] > 0


@pytest.mark.parametrize("trace,names", [(0, E2E), (1, LAYERS)])
def test_one_workload_ends_with_json_summary(trace, names, tmp_path):
    proc = ledger("--workload", "functional", "--quick", "--seed", "3",
                  "--seconds", "1", "--trace", str(trace), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == names
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "regen-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("slower,status", [(1.0, 0), (1.5, 1)])
def test_compare_fails_on_a_regression_even_with_host_drift(slower, status, tmp_path):
    # B's host ran 1.5x slower and B's raw walls followed it: the note says
    # host drift, but a scaled wall_s 1.5x worse is still a regression.
    workload = SPEC["workloads"][0]["name"]
    for side, factor in (("a", 1.0), ("b", slower)):
        for run in range(10):
            jitter = 1 + run / 1000
            e2e = {m: {"value": jitter, "samples": [jitter]} for m in E2E}
            e2e["wall_s"] = {"value": factor * jitter, "samples": [factor * jitter]}
            doc = {"workloads": {workload: {
                "end_to_end": e2e, "raw_wall_s": [factor * jitter],
                "host_probe_ms": 0.3 * factor}}}
            path = tmp_path / side / f"results-{run}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path / "a"), str(tmp_path / "b")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == status, proc.stdout + proc.stderr
    assert ("host drift" in proc.stdout) == (slower != 1.0), proc.stdout
    assert ("REGRESSION" in proc.stdout) == bool(status), proc.stdout
