"""Golden trace regression: every implementation's timeline is pinned.

Each implementation's tiny-grid full-network run, and each mirror-backend
run of ``MIRROR_GOLDEN_KEYS``, must reproduce the committed trace summary
exactly (event counts) / to tight relative tolerance (timings, fractions).
A diff here means the instrumentation or the performance model changed;
if intentional, regenerate with::

    PYTHONPATH=src python tools/update_golden_traces.py

and bump ``repro.cache.MODEL_VERSION`` when timings moved.
"""

import json
from pathlib import Path

import pytest

from repro.core.runner import run

from obs_configs import (
    MIRROR_GOLDEN_KEYS,
    golden_config,
    golden_keys,
    golden_mirror_config,
    golden_summary,
)

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"

#: Relative tolerance on golden floats. The simulator is deterministic, so
#: this only absorbs JSON round-off of the committed values.
RTOL = 1e-9


@pytest.fixture(scope="module")
def golden_doc():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden(golden_doc):
    return golden_doc["impls"]


def assert_summary_matches(got: dict, expect: dict) -> None:
    assert got["n_events"] == expect["n_events"]
    assert got["events_per_lane"] == expect["events_per_lane"]
    assert got["mpi_posts"] == expect["mpi_posts"]
    assert got["n_counter_samples"] == expect["n_counter_samples"]
    assert got["overlap_fraction"] == pytest.approx(
        expect["overlap_fraction"], rel=RTOL, abs=1e-12
    )
    assert got["elapsed_s"] == pytest.approx(expect["elapsed_s"], rel=RTOL)


class TestGoldenCoverage:
    def test_all_implementations_covered(self, golden):
        assert sorted(golden) == golden_keys()

    def test_mirror_runs_covered(self, golden_doc):
        assert sorted(golden_doc["mirror"]) == sorted(MIRROR_GOLDEN_KEYS)


@pytest.mark.parametrize("key", golden_keys())
class TestGoldenTraces:
    def test_summary_matches(self, key, golden):
        assert key in golden, (
            f"no golden entry for {key!r}; run tools/update_golden_traces.py"
        )
        assert_summary_matches(golden_summary(run(golden_config(key))), golden[key])


@pytest.mark.parametrize("key", MIRROR_GOLDEN_KEYS)
class TestGoldenMirrorTraces:
    def test_summary_matches(self, key, golden_doc):
        got = golden_summary(run(golden_mirror_config(key)))
        assert_summary_matches(got, golden_doc["mirror"][key])
