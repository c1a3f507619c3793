"""Cross-commit bit-identity pins for seeded (perturbed) runs.

``TestCounterGolden`` pins a handful of raw draws, and the golden fast
dump covers only the one noise experiment. The sha256 digests below pin
whole seeded timelines, so any change to how a stream keys or consumes
its draws (which lane, which index, how many per call) changes them:

* the ``low``, ``medium`` and ``high`` presets, so the compute, latency,
  bandwidth, stall, drop, straggler, kernel and PCIe lanes all draw;
* the mirror and full backends;
* the ``bulk``, ``nonblocking``, ``hybrid_overlap`` and ``gpu_streams``
  implementations on a small Lens config;
* one seeded SpMV run and one ``run_replicated`` ensemble.

Each digest is sha256 over ``repr((elapsed_s, sorted(phases.items()),
sorted(comm_stats.items())))``, followed for the ensemble by its sorted
``stats``. To re-derive them, run ``digests()``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import RunConfig
from repro.core.runner import run, run_replicated
from repro.machines import JAGUARPF, LENS
from repro.perturb import NoiseSpec

PRESETS = ("low", "medium", "high")
NETWORKS = ("mirror", "full")
IMPLS = ("bulk", "nonblocking", "hybrid_overlap", "gpu_streams")


def _lens(impl: str, network: str, preset: str) -> RunConfig:
    return RunConfig(
        machine=LENS, implementation=impl, cores=32, threads_per_task=2,
        steps=2, domain=(64, 64, 64), network=network, seed=20110516,
        noise=NoiseSpec.preset(preset),
    )


def _spmv() -> RunConfig:
    return RunConfig(
        machine=JAGUARPF, implementation="nonblocking", cores=48,
        threads_per_task=1, steps=2, workload="spmv",
        workload_params=(("rows", 1 << 12), ("band", 8), ("extras", 2)),
        seed=77, noise=NoiseSpec.preset("high"),
    )


def _ensemble():
    cfg = RunConfig(
        machine=JAGUARPF, implementation="bulk", cores=24,
        threads_per_task=6, steps=2, seed=123,
        noise=NoiseSpec.preset("medium"),
    )
    return run_replicated(cfg, 4)


def _case_runs():
    cases = {
        f"{impl}-{network}-{preset}": (lambda i=impl, n=network, p=preset:
                                       run(_lens(i, n, p)))
        for preset in PRESETS for network in NETWORKS for impl in IMPLS
    }
    cases["spmv-high"] = lambda: run(_spmv())
    cases["replicated-medium"] = _ensemble
    return cases


CASES = _case_runs()


def _digest(res) -> str:
    text = repr((
        res.elapsed_s, sorted(res.phases.items()),
        sorted(res.comm_stats.items()),
    ))
    if res.stats is not None:
        text += repr(sorted(res.stats.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict:
    """Fresh digests of every case (to re-pin after an intended change)."""
    return {name: _digest(fn()) for name, fn in CASES.items()}


DIGESTS = {
    "bulk-mirror-low":
        "3f341ef06fe8ef47e2cd2664c914a2316f6f1014c113e086be9833941c8d32cc",
    "nonblocking-mirror-low":
        "9a3e6a51be830d951e964419773ee0f371625391ceb7d92fb0436df8f03545a8",
    "hybrid_overlap-mirror-low":
        "735088968844696cfc9414f1b4dec8ede1b127cdada056210fddcc1ff806f610",
    "gpu_streams-mirror-low":
        "440f48b01ddc6c74242d684767269892fdfe5151dd4776e9f95c202da4a1e586",
    "bulk-full-low":
        "94d599897c5e235e4cfce15ab3c53025a48deaabb48ccd3ed65a931139a8af3d",
    "nonblocking-full-low":
        "f60ebcb98594729e26a8e7a790fbe6ca5dde77ce229cbc3c2d0b66e5d3ad939e",
    "hybrid_overlap-full-low":
        "a85081ff4886ea9ab7d91d957c70347334fee218d819fa1f56bdb9b7b5f39556",
    "gpu_streams-full-low":
        "85be3519f8542847a19485ffb97e202387ac2b7fb3368f130ec93c2104e1e4e1",
    "bulk-mirror-medium":
        "ab3591b0580f6822da093e264fd9938d33ba41ad6490556ae26b4bf2327456c1",
    "nonblocking-mirror-medium":
        "e50b80aba948b31db4b6feaef3dbafe009c46c3748d08e130dc27332791a096d",
    "hybrid_overlap-mirror-medium":
        "fb5dd6a461759ead3409bbdc78fa02dc9a7fe1b054c9694e6c4d86fce0f97017",
    "gpu_streams-mirror-medium":
        "7f849a84d953c18d11aae4371d8a69dd81e031348d1e51873fcf76c4369c9eb9",
    "bulk-full-medium":
        "cd9f1d0e80ea202de9d62cb90941ea2096c834ae05734f4292f311a2821c76a8",
    "nonblocking-full-medium":
        "6eb930a3b52629a2e65b844ecfe03bbd9706838f923c9870752de79361f4c9f3",
    "hybrid_overlap-full-medium":
        "34f0126cfbe6d230e11ac696d306511f53903b71b54b8010de4d2a69b5ed052d",
    "gpu_streams-full-medium":
        "a12bca57e3a6f04fb3d3fde8c3b40fda1981220b7dfd999143958f11351233ca",
    "bulk-mirror-high":
        "754607e06be9c2aec6927583efb3091704089a3310a8e9854de841fcfdfe6f24",
    "nonblocking-mirror-high":
        "b3373c19e351690dd518f0a5faa5a3d8b3b1f4cadb3b127dc55a70880ec9222a",
    "hybrid_overlap-mirror-high":
        "bf8b3f4708b8d9d377fd42d13f24e641264294b8578821977b17e955f266b8a1",
    "gpu_streams-mirror-high":
        "ac9a32a8f9266dbd72c2e7685144fcc6dc6cec98a31b7673bdb5fae7be42bb8a",
    "bulk-full-high":
        "9f1e15336e575d9b33a24ed4aa6d2e66762b11c882282fde1b440f3b955b3d99",
    "nonblocking-full-high":
        "2b615bdf6e1fca76b6637deceb94838ceca4876ba51b38442504962e9ceecddd",
    "hybrid_overlap-full-high":
        "b1b4b8d868cc6086eb689969d38a595965583eeb4267d2303b5814f8a15fee10",
    "gpu_streams-full-high":
        "4bfe539e1831a9592fe59010057a9976738d6b65ecf8a401bd8a597898fede88",
    "spmv-high":
        "ee22deae6087581326f0f8ee6307459a7bad284745e0887e159d938a2c940b2f",
    "replicated-medium":
        "eec16339047cdeacadfce0116df3200dd92014f5d65a8ba5031c1c350e961494",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_run_bit_identical(name):
    assert _digest(CASES[name]()) == DIGESTS[name]


if __name__ == "__main__":  # pragma: no cover - re-pinning aid
    for name, value in digests().items():
        print(f'    "{name}":\n        "{value}",')
