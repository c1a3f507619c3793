"""The DES-side GPU device: streams, kernel slots, copy engines, PCIe.

Semantics follow CUDA's execution model as the paper's implementations use
it (§IV-E..I):

* operations issued to one :class:`Stream` execute in FIFO order;
* operations in *different* streams may overlap, subject to hardware:
  kernels from different streams run concurrently only on devices with
  ``concurrent_kernels`` (C2050, not C1060); H2D/D2H copies need a copy
  engine (1 on C1060, 2 on C2050) and share the PCIe link's bandwidth;
* the host blocks for ``kernel_launch_us`` per issued operation (driver
  overhead) but does not wait for completion — callers get an event;
* ``synchronize`` waits for all issued work, like ``cudaDeviceSynchronize``.

Functional payloads (closures over NumPy arrays) run when their simulated
operation completes, so data flow follows stream ordering exactly and
misuse (e.g. reading a buffer before its copy completed) produces wrong
numbers in functional tests, just as it would on hardware.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.des import Environment, Event, Resource, SharedBandwidth
from repro.machines.spec import GpuSpec
from repro.obs.tracer import GPU_GROUP_BASE
from repro.simgpu.memory import DeviceMemory

__all__ = ["Stream", "Gpu"]

Action = Optional[Callable[[], None]]


class Stream:
    """A CUDA stream: an in-order queue of device operations.

    Operations are sequenced by callback chaining on the previous tail
    event rather than by spawning a driver process per operation (the seed
    engine's per-op ``runner()`` generators): issuing an op costs one
    completion :class:`Event` and one scheduling slot. When the tail is
    already processed, ``schedule_now`` appends the begin callback to the
    flat core's *live cohort*, so it runs this very timestamp after
    everything already scheduled for it — the same position the seed
    engine's counter would have assigned.

    A stream keeps its device's environment, not the device: the device
    lists its streams, and a back reference would make every device a
    reference cycle that outlives its run.
    """

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self._tail: Optional[Event] = None

    @property
    def tail(self) -> Optional[Event]:
        """Completion event of the most recently enqueued operation."""
        return self._tail

    def _issue(self, begin: Callable[[object], None], done: Event) -> Event:
        """Sequence ``begin`` after the current tail; ``done`` is the new tail."""
        prev = self._tail
        self._tail = done
        if prev is None or prev.processed:
            self.env.schedule_now(begin)
        else:
            prev.callbacks.append(begin)
        return done

    def synchronize(self) -> Event:
        """Event that fires when all work issued to this stream is done."""
        env = self.env
        if self._tail is None or self._tail.processed:
            ev = env.event()
            ev.succeed()
            return ev
        return self._tail


class Gpu:
    """One simulated GPU attached to a DES environment."""

    def __init__(
        self, env: Environment, spec: GpuSpec, name: str = "gpu",
        trace_group: int = GPU_GROUP_BASE,
    ):
        self.env = env
        self.spec = spec
        self.name = name
        self.memory = DeviceMemory(int(spec.memory_gb * 1e9))
        self.pcie = SharedBandwidth(env, spec.pcie_bandwidth_bps, name=f"{name}-pcie")
        kernel_slots = 16 if spec.concurrent_kernels else 1
        self._kernel_slot = Resource(env, capacity=kernel_slots)
        # Copy engines are per-direction on two-engine devices (the C2050
        # has one H2D and one D2H engine); a single-engine device (C1060)
        # serves both directions through the same engine. Two same-direction
        # copies therefore never overlap — the trace-invariant checker
        # asserts exactly this.
        if spec.copy_engines >= 2:
            self._copy_engines = {
                "h2d": Resource(env, capacity=1),
                "d2h": Resource(env, capacity=1),
            }
        else:
            shared = Resource(env, capacity=1)
            self._copy_engines = {"h2d": shared, "d2h": shared}
        # Synchronous pageable copies are serviced one at a time by the
        # driver, regardless of how many host tasks issue them.
        self.sync_copy_lock = Resource(env, capacity=1)
        #: NVLink-class peer fabric shared by the node's devices.  The
        #: runner wires one :class:`SharedBandwidth` per node into every
        #: resident Gpu when the spec has NVLink; None means peer copies
        #: stage through the host (D2H + H2D over both devices' PCIe).
        self.nvlink: Optional[SharedBandwidth] = None
        self._streams: List[Stream] = []
        #: optional repro.obs tracer recording kernel/copy intervals.
        self.tracer = None
        #: optional repro.perturb injector: kernel-clock and PCIe jitter,
        #: drawn per issued operation from this device's (group, lane)
        #: counter streams.
        self.perturb = None
        #: group id of this device's trace lanes and noise streams (the
        #: runner gives each device its own; see repro.obs.tracer
        #: group-id conventions).
        self.trace_group = trace_group
        # Counters for tests and reports.
        self.kernels_launched = 0
        self.bytes_h2d = 0
        self.bytes_d2h = 0
        self.bytes_p2p = 0

    # -- streams ------------------------------------------------------------
    def stream(self, name: Optional[str] = None) -> Stream:
        """Create a new stream."""
        s = Stream(self.env, name or f"{self.name}-stream{len(self._streams)}")
        self._streams.append(s)
        return s

    @property
    def host_launch_cost_s(self) -> float:
        """Host-side blocking time to issue one device operation."""
        return self.spec.kernel_launch_us * 1e-6

    # -- operations ---------------------------------------------------------
    def launch_kernel(
        self,
        stream: Stream,
        duration_s: float,
        action: Action = None,
        name: str = "kernel",
    ) -> Event:
        """Issue a kernel of known ``duration_s`` to ``stream``.

        Returns the kernel's completion event. The caller is responsible for
        charging host launch overhead (:attr:`host_launch_cost_s`) to its own
        timeline, since the host — not the device — pays it.
        """
        if duration_s < 0:
            raise ValueError("kernel duration must be non-negative")
        if self.perturb is not None and duration_s > 0.0:
            duration_s *= self.perturb.kernel_factor(self.trace_group)
        self.kernels_launched += 1
        env = self.env
        done = Event(env)

        def begin(_arg):
            slot = self._kernel_slot.request()

            def granted(_ev):
                start = env.now

                def finish(_a):
                    self._kernel_slot.release(slot)
                    if self.tracer is not None:
                        self.tracer.record(
                            "gpu-kernel", name, start, env.now,
                            group=self.trace_group, cat="kernel",
                        )
                    if action is not None:
                        action()
                    done.succeed()

                env.schedule(duration_s, finish)

            slot.callbacks.append(granted)

        return stream._issue(begin, done)

    def _memcpy(
        self, stream: Stream, nbytes: int, action: Action, name: str,
        direction: str = "h2d",
    ) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        wire_bytes = nbytes
        if self.perturb is not None and nbytes > 0:
            # DMA/driver interference stretches the wire work, not the
            # engine bookkeeping; the byte counters stay at the true size.
            wire_bytes = nbytes * self.perturb.pcie_factor(self.trace_group)
        env = self.env
        done = Event(env)

        def begin(_arg):
            engines = self._copy_engines[direction]
            engine = engines.request()

            def granted(_ev):
                start = env.now

                def finish(_ev2):
                    engines.release(engine)
                    if self.tracer is not None:
                        self.tracer.record(
                            "gpu-copy", name, start, env.now,
                            group=self.trace_group, cat="copy",
                            args={"dir": direction, "nbytes": nbytes},
                        )
                    if action is not None:
                        action()
                    done.succeed()

                def after_latency(_a):
                    wire = self.pcie.transfer(wire_bytes)
                    wire.callbacks.append(finish)

                env.schedule(self.spec.pcie_latency_s, after_latency)

            engine.callbacks.append(granted)

        return stream._issue(begin, done)

    def memcpy_h2d(
        self, stream: Stream, nbytes: int, action: Action = None, name: str = "h2d"
    ) -> Event:
        """Async host-to-device copy of ``nbytes``; returns completion event."""
        self.bytes_h2d += nbytes
        return self._memcpy(stream, nbytes, action, name, direction="h2d")

    def memcpy_d2h(
        self, stream: Stream, nbytes: int, action: Action = None, name: str = "d2h"
    ) -> Event:
        """Async device-to-host copy of ``nbytes``; returns completion event."""
        self.bytes_d2h += nbytes
        return self._memcpy(stream, nbytes, action, name, direction="d2h")

    def peer_copy(
        self,
        stream: Stream,
        peer: "Gpu",
        nbytes: int,
        action: Action = None,
        name: str = "p2p",
    ) -> Event:
        """Device-to-device copy to ``peer`` (``cudaMemcpyPeerAsync``).

        When both devices hang off the same NVLink fabric (the runner
        wires one shared link per node), the copy DMAs directly over it —
        driven by this device's outbound copy engine, traced on the
        "nvlink" lane.  Without a common fabric it stages through the
        host: a D2H hop over this device's PCIe link, then an H2D hop
        over the peer's, each occupying that device's engine and paying
        its latency — which is exactly why NVLink-class links matter.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if peer is self:
            raise ValueError("peer_copy needs a distinct destination device")
        self.bytes_p2p += nbytes
        wire_bytes = nbytes
        if self.perturb is not None and nbytes > 0:
            wire_bytes = nbytes * self.perturb.pcie_factor(self.trace_group)
        env = self.env
        done = Event(env)
        link = (
            self.nvlink
            if self.nvlink is not None and peer.nvlink is self.nvlink
            else None
        )

        def hop(dev: "Gpu", direction: str, then: Callable[[], None]):
            """One staged hop over ``dev``'s PCIe (engine + latency + wire)."""
            engines = dev._copy_engines[direction]
            engine = engines.request()

            def granted(_ev):
                start = env.now

                def finish(_a):
                    engines.release(engine)
                    if dev.tracer is not None:
                        dev.tracer.record(
                            "gpu-copy", f"{name}:{direction}", start, env.now,
                            group=dev.trace_group, cat="copy",
                            args={"dir": direction, "nbytes": nbytes,
                                  "peer": peer.name if dev is self else self.name},
                        )
                    then()

                def after_latency(_a):
                    wire = dev.pcie.transfer(wire_bytes)
                    wire.callbacks.append(finish)

                env.schedule(dev.spec.pcie_latency_s, after_latency)

            engine.callbacks.append(granted)

        def complete():
            if action is not None:
                action()
            done.succeed()

        if link is not None:
            def begin(_arg):
                engines = self._copy_engines["d2h"]
                engine = engines.request()

                def granted(_ev):
                    start = env.now

                    def finish(_a):
                        engines.release(engine)
                        if self.tracer is not None:
                            self.tracer.record(
                                "nvlink", name, start, env.now,
                                group=self.trace_group, cat="copy",
                                args={"src": self.name, "dst": peer.name,
                                      "nbytes": nbytes},
                            )
                        complete()

                    def after_latency(_a):
                        wire = link.transfer(wire_bytes)
                        wire.callbacks.append(finish)

                    env.schedule(self.spec.nvlink_latency_s, after_latency)

                engine.callbacks.append(granted)
        else:
            def begin(_arg):
                hop(self, "d2h", lambda: hop(peer, "h2d", complete))

        return stream._issue(begin, done)

    # -- synchronization ------------------------------------------------------
    def synchronize(self, streams: Optional[List[Stream]] = None) -> Event:
        """Event that fires when all issued work (or ``streams``) completes."""
        targets = streams if streams is not None else self._streams
        tails = [s.synchronize() for s in targets]
        if not tails:
            ev = self.env.event()
            ev.succeed()
            return ev
        return self.env.all_of(tails)
