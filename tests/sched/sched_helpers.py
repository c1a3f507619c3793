"""Helpers shared by the scheduler tests.

Imported by name (``from sched_helpers import ...``), like
``tests/obs/obs_configs.py``, so they never shadow another ``conftest``.
"""

import glob
import os
import pickle
import signal
from concurrent.futures import Future

from repro.sched import TaskRecord


class StubPool:
    """Stands in for the process pool: keeps each chunk, runs nothing.

    Each submission appends ``"s"`` to ``log`` when one is given.  With
    ``settle`` a chunk's future is done (with no outcomes) as soon as it
    is submitted; otherwise it never settles.
    """

    def __init__(self, log=None, settle=False):
        self.blobs = []
        self.log = log
        self.settle = settle

    def submit(self, _fn, blob):
        self.blobs.append(blob)
        if self.log is not None:
            self.log.append("s")
        fut = Future()
        if self.settle:
            fut.set_result([])
        return fut

    def shutdown(self, **_kw):
        pass

    def chunks(self):
        """The item lists of every chunk, in submission order."""
        return [pickle.loads(b) for b in self.blobs]


def assert_no_payload_bytes(sched):
    """No settled record and no chunk-table entry holds payload bytes."""
    with sched._lock:
        records = list(sched._memo.values())
        table = dict(sched._chunk_records)
    assert records
    for rec in records:
        assert rec.done.is_set()
        for name in TaskRecord.__slots__:
            value = getattr(rec, name)
            assert not isinstance(value, (bytes, bytearray)), name
    for recs in table.values():
        assert all(isinstance(r, TaskRecord) for r in recs)


def journal_lines(path):
    """Complete lines across a journal directory's segments."""
    lines = 0
    for segment in glob.glob(os.path.join(path, "*.jsonl")):
        try:
            with open(segment) as fh:
                lines += sum(1 for line in fh if line.endswith("\n"))
        except OSError:
            pass
    return lines


def reap_group(proc):
    """Kill what is left of a killed child's session: its orphaned pool workers."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
