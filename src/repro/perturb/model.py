"""The runtime perturbation object threaded through the simulator.

One :class:`Perturbation` is built per run (in
:func:`repro.core.runner._run_uncached`) from the config's ``(seed,
noise)`` pair and handed to every simulated component the same way the
tracer is: ``component.perturb`` defaults to ``None`` and every hook site
guards with one ``if perturb is not None`` check, so the noiseless path
(``seed=None``) stays bit-identical to the pre-perturbation simulator and
its cost is one pointer comparison per site (gated ≤ 3% by
``benchmarks/bench_guards.py``).

Draws come from :mod:`repro.perturb.rng` counter streams keyed by
``(seed, group, lane)`` with a per-stream event index, so a component's
noise sequence is independent of every other component's activity — the
same config produces bit-identical results across process restarts,
``--jobs N`` worker counts, and scheduling refactors that do not change
a stream's own draw order.

Fault events (progress stalls, drop/retransmit cycles, straggler
designations) are recorded on a dedicated ``"noise"`` trace lane when a
tracer is attached, so perturbed timelines show *why* an interval
stretched; continuous jitter factors are not traced (they would double
every event count for no diagnostic value).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.perturb.rng import (
    LANE_COMPUTE,
    LANE_DROP,
    LANE_KERNEL,
    LANE_NET_BANDWIDTH,
    LANE_NET_LATENCY,
    LANE_PCIE,
    LANE_STALL,
    LANE_STRAGGLER,
    Stream,
)
from repro.perturb.spec import NoiseSpec

__all__ = ["Perturbation"]

#: Trace lane carrying discrete noise/fault events.
NOISE_LANE = "noise"


class Perturbation:
    """Per-run noise/fault injector (see module docstring)."""

    __slots__ = ("seed", "spec", "tracer", "_streams", "_stragglers")

    def __init__(self, seed: int, spec: NoiseSpec):
        if seed is None:
            raise ValueError("Perturbation requires a concrete seed")
        self.seed = int(seed)
        self.spec = spec
        #: optional repro.obs tracer; fault events land on the "noise" lane.
        self.tracer = None
        self._streams: Dict[Tuple[int, int], Stream] = {}
        self._stragglers: Dict[int, float] = {}

    # -- streams ------------------------------------------------------------
    def stream(self, group: int, lane: int) -> Stream:
        """The (cached) counter stream for one ``(group, lane)`` pair."""
        key = (group, lane)
        s = self._streams.get(key)
        if s is None:
            s = Stream(self.seed, group, lane)
            self._streams[key] = s
        return s

    # -- host ---------------------------------------------------------------
    def straggler_factor(self, rank: int) -> float:
        """Rank-sticky compute slowdown (drawn once per rank)."""
        f = self._stragglers.get(rank)
        if f is None:
            spec = self.spec
            if spec.straggler_prob > 0.0 and self.stream(
                rank, LANE_STRAGGLER
            ).bernoulli(spec.straggler_prob):
                f = spec.straggler_factor
                if self.tracer is not None:
                    self.tracer.mark(
                        NOISE_LANE, "straggler", 0.0, group=rank, cat="noise",
                        args={"rank": rank, "factor": f},
                    )
            else:
                f = 1.0
            self._stragglers[rank] = f
        return f

    def compute_factor(self, rank: int) -> float:
        """Multiplicative factor for one host compute/copy chunk."""
        spec = self.spec
        f = self.straggler_factor(rank)
        if spec.os_jitter > 0.0:
            f *= self.stream(rank, LANE_COMPUTE).lognormal_factor(spec.os_jitter)
        return f

    # -- network ------------------------------------------------------------
    def latency_factor(self, rank: int) -> float:
        """Multiplicative factor on one message's latency term."""
        sigma = self.spec.latency_jitter
        if sigma <= 0.0:
            return 1.0
        return self.stream(rank, LANE_NET_LATENCY).lognormal_factor(sigma)

    def wire_factor(self, rank: int) -> float:
        """Multiplicative factor on one message's wire work (bytes)."""
        sigma = self.spec.bandwidth_jitter
        if sigma <= 0.0:
            return 1.0
        return self.stream(rank, LANE_NET_BANDWIDTH).lognormal_factor(sigma)

    def message_delay(self, rank: int, now: float) -> float:
        """Extra seconds injected before one message progresses.

        Combines the progress-stall model (with probability ``stall_prob``
        the MPI library fails to progress this message for an
        exponentially distributed ``stall_us``) and the drop/retransmit
        model (each of up to ``max_retries`` independent drops costs one
        timeout, growing by ``retransmit_backoff`` per retry). Records the
        injected faults on the ``"noise"`` trace lane.
        """
        spec = self.spec
        delay = 0.0
        if spec.stall_prob > 0.0:
            s = self.stream(rank, LANE_STALL)
            if s.bernoulli(spec.stall_prob):
                stall = s.exponential(spec.stall_us * 1e-6)
                delay += stall
                if self.tracer is not None and stall > 0.0:
                    self.tracer.record(
                        NOISE_LANE, "stall", now, now + stall,
                        group=rank, cat="noise",
                        args={"rank": rank, "delay_us": stall * 1e6},
                    )
        if spec.drop_prob > 0.0:
            s = self.stream(rank, LANE_DROP)
            timeout = spec.retransmit_timeout_us * 1e-6
            drops = 0
            penalty = 0.0
            while drops < spec.max_retries and s.bernoulli(spec.drop_prob):
                penalty += timeout
                timeout *= spec.retransmit_backoff
                drops += 1
            if drops:
                delay += penalty
                if self.tracer is not None:
                    self.tracer.record(
                        NOISE_LANE, "retransmit", now + delay - penalty,
                        now + delay, group=rank, cat="noise",
                        args={"rank": rank, "drops": drops,
                              "penalty_us": penalty * 1e6},
                    )
        return delay

    # -- gpu ----------------------------------------------------------------
    def kernel_factor(self, group: int) -> float:
        """Multiplicative factor on one GPU kernel's duration."""
        sigma = self.spec.kernel_jitter
        if sigma <= 0.0:
            return 1.0
        return self.stream(group, LANE_KERNEL).lognormal_factor(sigma)

    def pcie_factor(self, group: int) -> float:
        """Multiplicative factor on one PCIe copy's duration/work."""
        sigma = self.spec.pcie_jitter
        if sigma <= 0.0:
            return 1.0
        return self.stream(group, LANE_PCIE).lognormal_factor(sigma)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Perturbation(seed={self.seed}, spec={self.spec!r})"


def build_perturbation(
    seed: Optional[int], spec: Optional[NoiseSpec]
) -> Optional[Perturbation]:
    """The run's perturbation object, or ``None`` for the noiseless path.

    ``seed=None`` or a missing/null spec mean *no perturbation at all*:
    no object is allocated and every hook site sees ``perturb is None``,
    keeping the pre-perturbation simulator bit-identical.
    """
    if seed is None or spec is None or spec.is_null:
        return None
    return Perturbation(seed, spec)
