"""Static sweep peers: ``sweep --journal DIR --peer i/N`` over one journal."""

import os
import signal
import subprocess
import sys
import time

from repro.sched import ShardedJournal
from sched_helpers import journal_lines, reap_group

#: 242 configs on the full backend: about a second of simulation, so a
#: peer killed after its first journal line dies with most of its share
#: still to run.
SWEEP = ["sweep", "--machine", "lens", "--impl", "all", "--cores", "16", "32",
         "--network", "full", "--no-cache"]

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _sweep(cwd, *extra, **popen):
    """A ``sweep`` subprocess in ``cwd``; stdout is piped."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *SWEEP, *extra],
        cwd=cwd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, **popen,
    )


def _finish(proc):
    """``(table lines, scheduler: line)`` of a sweep that must succeed."""
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    lines = out.splitlines()
    table = [ln for ln in lines if not ln.startswith(("scheduler:", "run cache:"))]
    return table, next(ln for ln in lines if ln.startswith("scheduler:"))


def _field(line, name):
    return int(line.split(f" {name}=")[1].split()[0])


def test_two_concurrent_peers_print_the_serial_table(tmp_path):
    serial, line = _finish(_sweep(tmp_path, "--jobs", "2"))
    journal = str(tmp_path / "journal")
    peers = [_sweep(tmp_path, "--jobs", "2", "--journal", journal,
                    "--peer", f"{i}/2") for i in range(2)]
    tables = [_finish(p)[0] for p in peers]
    assert tables[0] == tables[1] == serial
    with ShardedJournal(journal) as j:
        # a serial sweep simulates each distinct config once
        assert len(j) == _field(line, "simulated")
        assert j.counts()["torn"] == 0


def test_killed_peer_is_finished_by_the_other_and_restarts_warm(tmp_path):
    serial, _ = _finish(_sweep(tmp_path, "--jobs", "1"))
    journal = str(tmp_path / "journal")
    dead = _sweep(tmp_path, "--jobs", "1", "--journal", journal,
                  "--peer", "1/2", start_new_session=True)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if journal_lines(journal) >= 1 or dead.poll() is not None:
            break
        time.sleep(0.005)
    dead.send_signal(signal.SIGKILL)
    dead.communicate()
    reap_group(dead)
    left = journal_lines(journal)
    assert left >= 1, "the peer journaled nothing before the kill"

    table, line = _finish(_sweep(tmp_path, "--jobs", "1", "--journal", journal,
                                 "--peer", "0/2"))
    assert table == serial
    assert _field(line, "journal-hits") >= left

    table, line = _finish(_sweep(tmp_path, "--jobs", "1", "--journal", journal,
                                 "--peer", "1/2"))
    assert table == serial
    assert " simulated=0 " in line


def test_peers_write_no_lease(tmp_path, capsys):
    from repro.cli import main

    journal = tmp_path / "journal"
    for peer in ("0/2", "1/2"):
        assert main(["sweep", "--machine", "lens", "--impl", "nonblocking",
                     "--cores", "16", "--no-cache", "--journal", str(journal),
                     "--peer", peer]) == 0
    capsys.readouterr()
    assert os.listdir(tmp_path) == ["journal"]
    assert not [p for p in journal.rglob("*") if "lease" in p.name]
