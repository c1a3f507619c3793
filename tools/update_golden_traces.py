#!/usr/bin/env python
"""Regenerate the committed golden trace summaries (tests/obs/golden_traces.json).

Run after any intentional change to the performance model or the tracer::

    PYTHONPATH=src python tools/update_golden_traces.py

then review the diff: event-count changes mean the instrumentation changed,
elapsed/overlap changes mean the *model* changed (and MODEL_VERSION in
repro.cache must be bumped).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests" / "obs"))

from obs_configs import (  # noqa: E402
    MIRROR_GOLDEN_KEYS,
    golden_config,
    golden_keys,
    golden_mirror_config,
    golden_summary,
)
from repro.core.runner import run  # noqa: E402

OUT = REPO / "tests" / "obs" / "golden_traces.json"


def main() -> int:
    doc = {
        "_comment": (
            "Golden trace summaries of every implementation on a 16^3 "
            "full-network run (impls) and of the mirror-backend runs in "
            "MIRROR_GOLDEN_KEYS (mirror); see tests/obs/obs_configs.py. "
            "Regenerate with tools/update_golden_traces.py."
        ),
        "impls": {},
        "mirror": {},
    }
    for key in golden_keys():
        result = run(golden_config(key))
        doc["impls"][key] = golden_summary(result)
        print(f"{key:18s} {doc['impls'][key]['n_events']:5d} events, "
              f"overlap {doc['impls'][key]['overlap_fraction']:.3f}")
    for key in MIRROR_GOLDEN_KEYS:
        summary = doc["mirror"][key] = golden_summary(run(golden_mirror_config(key)))
        print(f"{key:26s} {summary['n_events']:5d} events, "
              f"overlap {summary['overlap_fraction']:.3f}")
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
