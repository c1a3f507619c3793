"""Noise/fault specification: the knobs of the perturbation layer.

A :class:`NoiseSpec` is an immutable, JSON-canonicalizable description of
*how much* system variability to inject — it carries no randomness itself
(the seed lives on :class:`~repro.core.config.RunConfig`). Every knob maps
to a documented physical effect; see ``docs/MODEL.md`` §10 for the full
model and per-machine calibrations.

Knob groups
-----------
* **Host**: ``os_jitter`` (multiplicative lognormal jitter per compute
  chunk — OS ticks, TLB/cache interference), ``straggler_prob`` /
  ``straggler_factor`` (a rank-sticky slowdown: a bad node).
* **Network**: ``latency_jitter`` and ``bandwidth_jitter`` (per-message
  lognormal variance), ``stall_prob`` / ``stall_us`` (MPI progress
  stalls: the library fails to progress a rendezvous until poked —
  first-order for nonblocking overlap, per Zhou et al.),
  ``drop_prob`` / ``retransmit_timeout_us`` / ``retransmit_backoff`` /
  ``max_retries`` (link-level drop with exponential-backoff retransmit).
* **GPU**: ``kernel_jitter`` (clock/boost variation), ``pcie_jitter``
  (DMA/driver interference on host–device copies).

Presets (:meth:`NoiseSpec.preset`) give "low" / "medium" / "high"
profiles; :data:`MACHINE_NOISE` holds per-machine default calibrations;
:meth:`NoiseSpec.scaled` scales a whole profile by one jitter knob (the
x-axis of the noise-sensitivity experiment); :meth:`NoiseSpec.parse`
accepts the CLI's ``--noise`` strings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace
from typing import Dict

from repro.cache import KeyMemo

__all__ = ["NoiseSpec", "PRESETS", "MACHINE_NOISE"]

log = logging.getLogger("repro.perturb")

#: Fields scaled multiplicatively by :meth:`NoiseSpec.scaled` (sigmas and
#: probabilities; timeouts/factors describe the fault shape, not its rate).
_SCALED_FIELDS = (
    "os_jitter",
    "straggler_prob",
    "latency_jitter",
    "bandwidth_jitter",
    "stall_prob",
    "drop_prob",
    "kernel_jitter",
    "pcie_jitter",
)

_PROB_FIELDS = ("straggler_prob", "stall_prob", "drop_prob")


@dataclass(frozen=True)
class NoiseSpec(KeyMemo):
    """How much variability to inject (all knobs default to "off")."""

    # -- host ---------------------------------------------------------------
    #: sigma of the lognormal multiplicative jitter on each host compute
    #: chunk (0.01 ≈ 1% per-chunk variation; mean-preserving).
    os_jitter: float = 0.0
    #: probability that a rank is a straggler (drawn once per rank).
    straggler_prob: float = 0.0
    #: compute-slowdown factor of a straggler rank (>= 1).
    straggler_factor: float = 1.5
    # -- network ------------------------------------------------------------
    #: sigma of the lognormal jitter on per-message latency.
    latency_jitter: float = 0.0
    #: sigma of the lognormal jitter on per-message wire time.
    bandwidth_jitter: float = 0.0
    #: per-message probability of an MPI progress stall.
    stall_prob: float = 0.0
    #: mean stall duration in microseconds (exponentially distributed).
    stall_us: float = 50.0
    #: per-message probability of a link-level drop (then retransmitted).
    drop_prob: float = 0.0
    #: first retransmit timeout in microseconds.
    retransmit_timeout_us: float = 100.0
    #: timeout multiplier per successive retry (exponential backoff).
    retransmit_backoff: float = 2.0
    #: drops after which the message goes through anyway (bounds the model;
    #: a real network would raise an error to the application).
    max_retries: int = 3
    # -- gpu ----------------------------------------------------------------
    #: sigma of the lognormal jitter on GPU kernel durations.
    kernel_jitter: float = 0.0
    #: sigma of the lognormal jitter on PCIe copies (async and blocking).
    pcie_jitter: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise TypeError(f"NoiseSpec.{f.name} must be a number, got {v!r}")
            if v < 0:
                raise ValueError(f"NoiseSpec.{f.name} must be >= 0, got {v!r}")
        for name in _PROB_FIELDS:
            v = getattr(self, name)
            if v > 1.0:
                raise ValueError(f"NoiseSpec.{name} is a probability, got {v!r}")
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got {self.straggler_factor!r}"
            )
        if self.retransmit_backoff < 1.0:
            raise ValueError(
                f"retransmit_backoff must be >= 1, got {self.retransmit_backoff!r}"
            )
        if self.max_retries != int(self.max_retries):
            raise ValueError(f"max_retries must be an integer, got {self.max_retries!r}")

    # -- introspection ------------------------------------------------------
    @property
    def is_null(self) -> bool:
        """True when every stochastic knob is off (no perturbation)."""
        return all(getattr(self, name) == 0.0 for name in _SCALED_FIELDS)

    # -- derivation ---------------------------------------------------------
    def scaled(self, factor: float) -> "NoiseSpec":
        """Scale every sigma/probability by ``factor`` (probabilities clamp
        at 1). ``scaled(0)`` is the null spec; this is the x-axis of the
        noise-sensitivity experiment."""
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor!r}")
        changes = {}
        for name in _SCALED_FIELDS:
            v = getattr(self, name) * factor
            if name in _PROB_FIELDS:
                v = min(1.0, v)
            changes[name] = v
        return replace(self, **changes)

    def with_(self, **changes) -> "NoiseSpec":
        """A copy with some knobs replaced."""
        return replace(self, **changes)

    # -- construction -------------------------------------------------------
    @classmethod
    def preset(cls, name: str) -> "NoiseSpec":
        """A named profile: ``off`` / ``low`` / ``medium`` / ``high``."""
        try:
            return PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown noise preset {name!r}; known: {sorted(PRESETS)}"
            ) from None

    @classmethod
    def for_machine(cls, machine_name: str) -> "NoiseSpec":
        """The default noise calibration for a catalog machine.

        Accepts either the CLI key (``yona``) or the display name
        (``Yona``, ``A100-SXM``); lookup uses the same normalization as
        the machine catalog (case/space/hyphen-insensitive).  A machine
        without a calibration entry falls back to the ``off`` preset
        with a logged note, so new catalog entries work with ``--noise``
        before their calibration lands.
        """
        from repro.machines.spec import normalize_machine_name

        spec = MACHINE_NOISE.get(normalize_machine_name(machine_name))
        if spec is None:
            log.info(
                "no noise calibration for machine %r (known: %s); "
                "falling back to the 'off' preset",
                machine_name, sorted(MACHINE_NOISE),
            )
            return PRESETS["off"]
        return spec

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        """Parse a CLI ``--noise`` string.

        Accepted forms::

            medium              # a preset
            medium*0.5          # a preset scaled by a factor
            os_jitter=0.02,stall_prob=0.01,stall_us=80   # explicit knobs
            medium,stall_prob=0.2       # preset with overrides
        """
        text = text.strip()
        if not text:
            raise ValueError("empty --noise specification")
        base = cls()
        overrides: Dict[str, float] = {}
        known = {f.name for f in fields(cls)}
        for i, part in enumerate(p.strip() for p in text.split(",")):
            if "=" in part:
                key, _, val = part.partition("=")
                key = key.strip()
                if key not in known:
                    raise ValueError(
                        f"unknown noise knob {key!r}; known: {sorted(known)}"
                    )
                try:
                    overrides[key] = float(val)
                except ValueError:
                    raise ValueError(
                        f"noise knob {key}={val!r} is not a number"
                    ) from None
            elif i == 0:
                name, star, factor = part.partition("*")
                base = cls.preset(name)
                if star:
                    try:
                        base = base.scaled(float(factor))
                    except ValueError as exc:
                        raise ValueError(
                            f"bad noise scale in {part!r}: {exc}"
                        ) from None
            else:
                raise ValueError(
                    f"noise part {part!r} is neither the leading preset nor "
                    f"a knob=value pair"
                )
        if overrides:
            if "max_retries" in overrides:
                overrides["max_retries"] = int(overrides["max_retries"])
            base = base.with_(**overrides)
        return base


#: Named profiles. "medium" approximates the jitter of a busy production
#: cluster (a few % OS noise, occasional progress stalls); "high" is a
#: pathological machine (stressed NICs, frequent stalls, rare drops).
PRESETS: Dict[str, NoiseSpec] = {
    "off": NoiseSpec(),
    "low": NoiseSpec(
        os_jitter=0.005,
        latency_jitter=0.05,
        bandwidth_jitter=0.02,
        stall_prob=0.002,
        stall_us=20.0,
        kernel_jitter=0.005,
        pcie_jitter=0.01,
    ),
    "medium": NoiseSpec(
        os_jitter=0.02,
        latency_jitter=0.15,
        bandwidth_jitter=0.08,
        stall_prob=0.02,
        stall_us=60.0,
        drop_prob=0.001,
        kernel_jitter=0.015,
        pcie_jitter=0.03,
    ),
    "high": NoiseSpec(
        os_jitter=0.06,
        straggler_prob=0.01,
        straggler_factor=1.3,
        latency_jitter=0.4,
        bandwidth_jitter=0.2,
        stall_prob=0.08,
        stall_us=120.0,
        drop_prob=0.005,
        kernel_jitter=0.04,
        pcie_jitter=0.08,
    ),
}

#: Default calibrations per Table II machine (see docs/MODEL.md §10):
#: the Cray XT5/XE6 systems run a jitterless compute-node kernel (very low
#: OS noise, SeaStar/Gemini progress quirks), the commodity-cluster GPU
#: machines (Lens, Yona) see more OS and PCIe interference.
MACHINE_NOISE: Dict[str, NoiseSpec] = {
    "jaguarpf": NoiseSpec(
        os_jitter=0.003,
        latency_jitter=0.1,
        bandwidth_jitter=0.05,
        stall_prob=0.01,
        stall_us=40.0,
    ),
    "hopper": NoiseSpec(
        os_jitter=0.004,
        latency_jitter=0.08,
        bandwidth_jitter=0.04,
        stall_prob=0.008,
        stall_us=30.0,
    ),
    "lens": NoiseSpec(
        os_jitter=0.02,
        latency_jitter=0.15,
        bandwidth_jitter=0.08,
        stall_prob=0.015,
        stall_us=60.0,
        kernel_jitter=0.01,
        pcie_jitter=0.04,
    ),
    "yona": NoiseSpec(
        os_jitter=0.015,
        latency_jitter=0.12,
        bandwidth_jitter=0.06,
        stall_prob=0.012,
        stall_us=50.0,
        kernel_jitter=0.01,
        pcie_jitter=0.03,
    ),
    # Modern scenario machines (catalog.py): HPE/Cray Slingshot systems run
    # a quiet tuned kernel; the cloud EFA machine sees hypervisor jitter and
    # a software progress engine that stalls far more often.
    "a100sxm": NoiseSpec(
        os_jitter=0.004,
        latency_jitter=0.08,
        bandwidth_jitter=0.04,
        stall_prob=0.002,  # NIC-resident progress: stalls are rare
        stall_us=10.0,
        kernel_jitter=0.008,
        pcie_jitter=0.02,
    ),
    "milanss11": NoiseSpec(
        os_jitter=0.004,
        latency_jitter=0.08,
        bandwidth_jitter=0.04,
        stall_prob=0.002,
        stall_us=10.0,
    ),
    "efacloud": NoiseSpec(
        os_jitter=0.03,  # hypervisor + noisy neighbours
        straggler_prob=0.005,
        straggler_factor=1.2,
        latency_jitter=0.3,
        bandwidth_jitter=0.15,
        stall_prob=0.03,  # software progress engine loses the CPU
        stall_us=100.0,
    ),
}
# The display name "Hopper II" normalizes to "hopperii"; alias it so
# NoiseSpec.for_machine(machine.name) finds the same calibration as the
# CLI key "hopper".
MACHINE_NOISE["hopperii"] = MACHINE_NOISE["hopper"]
