"""Resources: counted exclusive resources and processor-sharing bandwidth.

Two resource flavours cover everything the machine models need:

* :class:`Resource` — ``capacity`` concurrent holders, FIFO queueing.
  Used for GPU copy engines and (on devices without concurrent-kernel
  support) the kernel execution slot.
* :class:`SharedBandwidth` — a link of fixed aggregate rate shared *fairly*
  among however many transfers are in flight (processor sharing). Used for
  NICs and the PCIe bus: two concurrent halo messages on one NIC each see
  half the wire bandwidth, which is the first-order behaviour the paper's
  exchange serialization is designed around.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.des.engine import Environment, Event, SimulationError

__all__ = ["Resource", "SharedBandwidth"]


class Request(Event):
    """Event granted when the resource admits this request."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A resource with integer capacity and FIFO admission.

    Usage inside a process::

        req = resource.request()
        yield req
        ...  # hold the resource
        resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._holders: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._holders)

    def request(self) -> Request:
        """Ask for one unit; the returned event fires when granted."""
        req = Request(self)
        if len(self._holders) < self.capacity:
            self._holders.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a previously granted unit."""
        if req in self._holders:
            self._holders.remove(req)
        elif req in self._waiting:
            self._waiting.remove(req)  # cancel a queued request
            return
        else:
            raise SimulationError("release() of a request this resource never granted")
        while self._waiting and len(self._holders) < self.capacity:
            nxt = self._waiting.popleft()
            self._holders.add(nxt)
            nxt.succeed()


class _Transfer:
    __slots__ = ("remaining", "done_event", "weight")

    def __init__(self, work: float, done_event: Event, weight: float):
        self.remaining = work
        self.done_event = done_event
        self.weight = weight


class SharedBandwidth:
    """A link whose rate is divided fairly among active transfers.

    ``rate`` is in work units per simulated second (typically bytes/s). A
    transfer of ``work`` units completes when its share of the link has
    delivered that much; shares are recomputed whenever a transfer starts or
    finishes (weighted processor sharing). With a single transfer in flight
    this reduces to ``work / rate`` seconds.
    """

    def __init__(self, env: Environment, rate: float, name: str = "link"):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.rate = float(rate)
        self.name = name
        self._active: list[_Transfer] = []
        self._last_update = env.now
        #: pending completion-wakeup handle (tombstoned on membership
        #: change), or None. The wakeup is the module function
        #: :func:`_wake` with the link as its slot argument: slot traffic
        #: only, no allocation, and no bound method of the link kept on
        #: the link (that would make every link a reference cycle).
        self._wakeup_handle: Optional[int] = None
        #: optional repro.obs tracer: per-transfer wire intervals (lane =
        #: the link's name) and an in-flight counter series. Zero-cost when
        #: None (one attribute check per transfer).
        self.tracer = None
        #: trace group id for this link's lane (runner assigns).
        self.trace_group = 0

    @property
    def n_active(self) -> int:
        """Number of in-flight transfers."""
        return len(self._active)

    def transfer(self, work: float, weight: float = 1.0) -> Event:
        """Start a transfer of ``work`` units; returns its completion event.

        ``weight`` biases the fair share (a transfer of weight 2 gets twice
        the share of a weight-1 transfer while both are active).
        """
        if work < 0:
            raise ValueError("work must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        done = Event(self.env)
        if work == 0:
            done.succeed()
            return done
        self._advance()
        self._active.append(_Transfer(float(work), done, float(weight)))
        tracer = self.tracer
        if tracer is not None:
            start = self.env.now
            tracer.counter(
                f"{self.name}.in_flight", start, len(self._active), self.trace_group
            )
            done.callbacks.append(
                lambda _ev, s=start: tracer.record(
                    self.name, "xfer", s, self.env.now,
                    group=self.trace_group, cat="wire", args={"work": work},
                )
            )
        self._reschedule()
        return done

    # -- internals ---------------------------------------------------------
    def _total_weight(self) -> float:
        return sum(t.weight for t in self._active)

    def _advance(self) -> None:
        """Apply progress since the last update to all active transfers."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._active:
            return
        total_w = self._total_weight()
        for t in self._active:
            t.remaining -= self.rate * (t.weight / total_w) * dt
        finished = [t for t in self._active if t.remaining <= 1e-12 * self.rate]
        if finished:
            self._active = [t for t in self._active if t not in finished]
            for t in finished:
                t.done_event.succeed()
            if self.tracer is not None:
                self.tracer.counter(
                    f"{self.name}.in_flight", now, len(self._active),
                    self.trace_group,
                )

    def _reschedule(self) -> None:
        """Schedule a wakeup at the earliest projected completion.

        A bare cancellable slot on the time heap instead of a waker process
        (which cost a Process, a bootstrap slot, and a Timeout per
        membership change). A superseded wakeup is *tombstoned* via
        :meth:`Environment.cancel` — the drain loop skips the dead slot, so
        stale wakeups never execute (the previous engine let them fire as
        generation-checked no-ops).
        """
        h = self._wakeup_handle
        if h is not None:
            self.env.cancel(h)
            self._wakeup_handle = None
        if not self._active:
            return
        total_w = self._total_weight()
        next_done = min(t.remaining / (self.rate * t.weight / total_w) for t in self._active)
        self._wakeup_handle = self.env.schedule_cancellable(next_done, _wake, self)


def _wake(link: SharedBandwidth) -> None:
    """A link's completion wakeup (the slot callback of
    :meth:`SharedBandwidth._reschedule`)."""
    # The handle died the moment this fired; clear it before _advance
    # can run completion callbacks that start new transfers.
    link._wakeup_handle = None
    link._advance()
    link._reschedule()
