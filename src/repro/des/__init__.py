"""Discrete-event simulation engine.

A small, dependency-free coroutine discrete-event engine in the style of
SimPy, sized for what the simulated MPI (:mod:`repro.simmpi`) and simulated
GPU (:mod:`repro.simgpu`) substrates need:

* :class:`Environment` — the simulation clock and event queue, plus bare
  ``fn(arg)`` callback slots (``schedule`` / ``schedule_cancellable``).
* :class:`Event`, :class:`Timeout`, :class:`Process` — awaitable primitives.
  Simulated activities are plain Python generators that ``yield`` events.
* :class:`AllOf` — barrier over a fixed set of events.
* :class:`~repro.des.resources.Resource` — counted exclusive resources
  (e.g. GPU copy engines).
* :class:`~repro.des.resources.SharedBandwidth` — processor-sharing
  bandwidth (e.g. a NIC or PCIe link shared by concurrent transfers).

Time is a float64 count of seconds of *virtual* (simulated) machine time;
it has no relation to wall-clock time of the simulation itself.
"""

from repro.des.engine import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.des.resources import Resource, SharedBandwidth

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "SharedBandwidth",
    "SimulationError",
    "Timeout",
]
