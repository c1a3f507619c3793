"""Core event loop: events, timeouts, processes, and the AllOf barrier.

The engine is deterministic: events scheduled for the same simulated time
fire in scheduling order (FIFO), which makes simulation results exactly
reproducible run-to-run.

The flat event core (see docs/MODEL.md §12)
--------------------------------------------------------------------------
The experiment sweeps pump millions of events through this loop, so the
hot path is built around flat slot storage instead of per-entry objects:

* **Time-bucket cohorts.** All entries due at one simulated time live in a
  single flat list of ``(kind, payload)`` slot *pairs* (structure-of-arrays
  layout: even indices hold the callback or a kind sentinel, odd indices
  the companion payload). The time heap holds each distinct pending time
  exactly *once*; the run loop pops a time, then drains that cohort start
  to finish with no further heap traffic. Scheduling into an existing
  bucket is a dict hit plus two list appends — no tuple, no heap churn.
* **Allocation-free steady state.** Exhausted cohort lists are recycled
  through a small pool, so steady-state scheduling allocates no tuples and
  no per-entry objects: an entry is two slot assignments. (The only
  allocation on a miss is the float produced by ``now + delay``, which
  becomes the bucket key; entries landing in an existing bucket allocate
  nothing that outlives the call.)
* **FIFO without counters.** Within a bucket, appends happen in scheduling
  order, and across buckets time strictly orders execution — so the global
  ``(time, counter)`` FIFO contract of the previous engine holds with no
  per-entry counter at all. ``docs/MODEL.md`` §12 has the equivalence
  argument; ``tests/des/test_flat_core.py`` checks it against a reference
  ``(time, counter)`` heap under hypothesis-generated workloads.
* **Tombstone cancellation.** :meth:`Environment.schedule_cancellable`
  parks the callback in a preallocated slot pool (parallel ``fn``/``arg``
  arrays plus an integer freelist) and returns an ``int`` handle;
  :meth:`Environment.cancel` nulls the slot, and the drain loop skips the
  dead pair without executing anything. Cancelling is two array writes —
  the heap and the bucket are never touched (the Fellow-Simcraft-Ship
  ``Engine.cancel`` idiom). :class:`~repro.des.resources.SharedBandwidth`
  wakeups ride this instead of generation-counter invalidation.
* **Float64 time base.** Keys are float64 seconds produced by exactly
  the ``now + delay`` arithmetic of every previous engine (or, through
  :meth:`Environment.timeout_at`, the caller's own arithmetic for a time
  it computed ahead), which is what keeps every experiment bit-identical
  to the pre-refactor dump oracle.
  Machine-model delays are arbitrary quotients (``bytes / rate``), so no
  fixed-point clock could represent them (docs/MODEL.md §12).
* **Callback slots / no relay events.** As before, internal machinery
  (bandwidth wakeups, wire completions, process bootstrap/resume)
  schedules a bare ``(fn, arg)`` pair via :meth:`Environment.schedule` /
  :meth:`Environment.schedule_now` — no :class:`Event`, no callback list —
  and a process yielding an already-*processed* event resumes through a
  slot instead of a relay Event.

Measured cohort shape and the Timeout hop
--------------------------------------------------------------------------
Cohorts are narrow in practice: a cold ``experiment all --fast`` runs
302,833 entries in 248,070 cohorts (1.22 entries each), and 91% of those
cohorts are one Timeout whose only waiter is one process — a rank charging
itself time or waiting out a transfer's computed completion. Two
consequences shape the code:

* **No exceptions on the common path.** A raise costs about ten times a
  ``len()`` check or a ``dict.get``, and with cohorts this narrow an
  ``IndexError`` at the end of each cohort or a ``KeyError`` on each new
  bucket would be paid every other entry. So the drain loop compares its
  cursor with the cohort length it last read (re-reading it when the
  cursor gets there), and the scheduling calls look buckets up with
  ``dict.get``.
* **Timeout hop.** Under plain ``run()``, a process that yields a Timeout
  advances the clock and resumes inside the same :meth:`Process._resume`
  call — no bucket drain, no loop turn — when all of these hold: the
  resume is the *only* callback of the entry being executed; no entry is
  left in the current cohort after the cursor; the Timeout has no other
  callbacks; it is the sole entry of its bucket; and that bucket's time is
  the heap minimum. The loop would then pop exactly that Timeout next and
  hand it straight back to the same resume, so the firing order and every
  ``now`` stay those of the loop (docs/MODEL.md §12). Ties, zero delays,
  ``run(until=...)`` and multi-waiter events take the loop. The cold
  regeneration above hops 221,392 times, 97% of its Timeouts.
"""

from __future__ import annotations

from heapq import heappop as _heappop
from heapq import heappush as _heappush
from types import GeneratorType as _GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "SimulationError",
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double-trigger, bad yield...)."""


# Event lifecycle states.
_PENDING = 0  # created, not yet triggered
_TRIGGERED = 1  # value decided, callbacks scheduled to run
_PROCESSED = 2  # callbacks have run

# Cohort slot-kind sentinels (private identities; user callables can never
# collide with them). A slot pair whose even element is one of these is an
# Event firing / cancellable-pool reference; anything else is a bare
# ``fn(arg)`` callback slot.
_EVENT = object()
_CANCELLABLE = object()

#: Exhausted cohort lists kept for reuse (bounds idle memory).
_POOL_MAX = 64


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* by :meth:`succeed` or :meth:`fail`; at that point
    its value (or exception) is frozen and its callbacks are scheduled to run
    at the current simulated time.
    """

    __slots__ = ("env", "callbacks", "_state", "_ok", "_value")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._state = _PENDING
        self._ok = True
        self._value: Any = None

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event's outcome has been decided."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception for failed events)."""
        if self._state == _PENDING:
            raise SimulationError("event value read before it was triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        env = self.env
        cur = env._cur
        if cur is not None:
            cur.append(_EVENT)
            cur.append(self)
        else:
            env._insert(env._now, _EVENT, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exception``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._ok = False
        self._value = exception
        env = self.env
        cur = env._cur
        if cur is not None:
            cur.append(_EVENT)
            cur.append(self)
        else:
            env._insert(env._now, _EVENT, self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.env.now:g}>"


_EVENT_NEW = Event.__new__


class Timeout(Event):
    """An event that succeeds ``delay`` simulated seconds after creation.

    Built only by :meth:`Environment.timeout`, which fills the fields via
    ``__new__`` and enqueues inline: experiment programs create one of
    these per timed cost charge — it is the most allocated object in a run.
    """

    __slots__ = ()


_TIMEOUT_NEW = Timeout.__new__


class Process(Event):
    """A running activity driven by a generator.

    The generator yields :class:`Event` instances; the process suspends until
    each yielded event is processed and resumes with the event's value (or
    has the exception thrown in, for failed events). The process — itself an
    event — succeeds with the generator's return value, so processes can wait
    on each other. Built only by :meth:`Environment.process`.

    Its resume callbacks are bound methods of the process itself, kept
    in slots so a resume allocates none. They are dropped when the
    generator ends (returns, raises or yields a non-event), so a finished
    process holds no reference to itself and reference counting frees it.
    """

    __slots__ = ("_generator", "_send", "_name", "_resume_cb", "_resume_with_cb")

    @property
    def name(self) -> str:
        """Process name (defaults to the generator's name, resolved lazily)."""
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    # _resume and _resume_with share their shape (the generator-driving body
    # is duplicated rather than delegated: one resume per simulated hop makes
    # an extra call layer measurable); only the trigger unpacking differs.

    def _resume(self, trigger: Event) -> None:
        env = self.env
        while True:
            try:
                if trigger._ok:
                    target = self._send(trigger._value)
                else:
                    target = self._generator.throw(trigger._value)
            except StopIteration as stop:
                # Inlined _finish (every process ends through here once; the
                # process event is still pending, so no state check).
                self._state = _TRIGGERED
                self._value = stop.value
                self._resume_cb = self._resume_with_cb = None
                cur = env._cur
                if cur is not None:
                    cur.append(_EVENT)
                    cur.append(self)
                else:
                    env._insert(env._now, _EVENT, self)
                return
            except BaseException as exc:
                self._crash(exc)
                return
            cls = target.__class__
            # Timeout hop (docs/MODEL.md §12): when the loop would next pop
            # exactly this Timeout and hand it straight back to us, advance
            # the clock and keep going in this call. _hop_end is the cohort
            # length at which this resume started as the sole callback of
            # its entry (-1 when hopping is off), so equality also means
            # nothing has been queued at "now" since.
            if (
                cls is Timeout
                and env._hop_end == len(env._cur)
                and not target.callbacks
                and target.env is env
            ):
                times = env._times
                if times and not env._crashed:
                    t = times[0]
                    buckets = env._buckets
                    bucket = buckets[t]
                    if len(bucket) == 2 and bucket[1] is target:
                        _heappop(times)
                        # The live cohort list becomes the bucket at t.
                        del buckets[env._now]
                        buckets[t] = env._cur
                        bucket.clear()
                        pool = env._pool
                        if len(pool) < _POOL_MAX:
                            pool.append(bucket)
                        env._now = t
                        target._state = _PROCESSED
                        trigger = target
                        continue
            if cls is Timeout or cls is Event or isinstance(target, Event):
                if target.env is env:
                    if target._state != _PROCESSED:
                        target.callbacks.append(self._resume_cb)
                    else:
                        self._stale_resume(target)
                    return
            self._bad_yield(target)
            return

    def _resume_with(self, okval) -> None:
        """Slot-callback resume carrying a pre-decided ``(ok, value)``."""
        try:
            if okval[0]:
                target = self._send(okval[1])
            else:
                target = self._generator.throw(okval[1])
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            self._crash(exc)
            return
        cls = target.__class__
        if cls is Timeout or cls is Event or isinstance(target, Event):
            if target.env is self.env:
                if target._state != _PROCESSED:
                    target.callbacks.append(self._resume_cb)
                else:
                    self._stale_resume(target)
                return
        self._bad_yield(target)

    def _stale_resume(self, target: Event) -> None:
        """Yielded an already-*processed* event: resume via a bare slot
        carrying the same outcome (the seed engine allocated a relay Event
        here)."""
        cb = self._resume_with_cb
        if cb is None:
            cb = self._resume_with_cb = self._resume_with
        self.env.schedule_now(cb, (target._ok, target._value))

    def _finish(self, value: Any) -> None:
        """Generator returned: succeed the process event (it is still
        pending — the generator was alive — so the state check is skipped)."""
        self._state = _TRIGGERED
        self._value = value
        self._resume_cb = self._resume_with_cb = None
        env = self.env
        cur = env._cur
        if cur is not None:
            cur.append(_EVENT)
            cur.append(self)
        else:
            env._insert(env._now, _EVENT, self)

    def _crash(self, exc: BaseException) -> None:
        # A crashed process fails its own event so waiters see the error;
        # with no waiters attached, Environment.run re-raises instead of
        # letting the crash vanish silently.
        has_waiters = bool(self.callbacks)
        self._resume_cb = self._resume_with_cb = None
        self.fail(exc)
        if not has_waiters:
            self.env._record_crash(self, exc)

    def _bad_yield(self, target: Any) -> None:
        if isinstance(target, Event):
            err = SimulationError(
                "process yielded an event from a different Environment"
            )
        else:
            err = SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, expected Event"
            )
        self._resume_cb = self._resume_with_cb = None
        self.fail(err)
        self.env._record_crash(self, err)


_PROCESS_NEW = Process.__new__


def _boot_process(p: Process) -> None:
    """First resume of a fresh process generator (a bare slot callback, so
    no bootstrap Event and no bound method): always ``send(None)`` — the
    specialized twin of :meth:`Process._resume_with`."""
    try:
        target = p._send(None)
    except StopIteration as stop:
        p._finish(stop.value)
        return
    except BaseException as exc:
        p._crash(exc)
        return
    cls = target.__class__
    if cls is Timeout or cls is Event or isinstance(target, Event):
        if target.env is p.env:
            if target._state != _PROCESSED:
                target.callbacks.append(p._resume_cb)
            else:
                p._stale_resume(target)
            return
    p._bad_yield(target)


class AllOf(Event):
    """Succeeds when every constituent event has succeeded.

    Value is the list of constituent values, in constructor order. Fails as
    soon as any constituent fails, detaching from the still-pending rest.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = events = list(events)
        for ev in events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different Environments")
        self._remaining = len(events)
        for ev in events:
            if ev._state == _PROCESSED:
                self._observe(ev)
            else:
                ev.callbacks.append(self._observe)
        if self._remaining == 0 and self._state == _PENDING:
            self.succeed([])

    def _observe(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            # Drop our observer from still-pending constituents: it would
            # fire as a no-op and pin the barrier until every loser resolves.
            observe = self._observe
            for other in self._events:
                if other._state == _PENDING:
                    try:
                        other.callbacks.remove(observe)
                    except ValueError:
                        pass
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])


class Environment:
    """Simulation clock, event queue, and process factory.

    Scheduled work lives in *time buckets*: ``_buckets`` maps an absolute
    arrival time to a flat list of ``(kind, payload)`` slot pairs in FIFO
    order, and ``_times`` is a heap holding each distinct pending time once.
    The run loop pops the earliest time, pins ``_cur`` to that bucket (the
    executing *cohort*), and drains it front to back; entries scheduled for
    "now" while a cohort executes are appended straight to ``_cur``.
    Exhausted bucket lists are recycled through ``_pool``.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: heap of pending bucket times; each distinct time appears once and
        #: the currently draining cohort's time is *not* in it.
        self._times: list = []
        #: time -> flat [kind0, payload0, kind1, payload1, ...] slot pairs.
        self._buckets: dict = {}
        self._cur: Optional[list] = None  # cohort being drained (== _buckets[_now])
        self._cur_i = 0  # cursor into _cur (pair-aligned: always even)
        self._pool: list = []  # recycled bucket lists
        # Cancellable-slot pool: parallel fn/arg arrays + integer freelist.
        self._slot_fn: list = []
        self._slot_arg: list = []
        self._slot_free: list = []
        self._crashed: list[tuple[Process, BaseException]] = []
        #: cohort length at which the executing sole-callback entry started
        #: (plain run() only; -1 otherwise): the Timeout-hop guard.
        self._hop_end = -1

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        # Fields written directly (skipping __init__ dispatch): env.event()
        # is called once per transfer/sync on the exchange hot path.
        ev = _EVENT_NEW(Event)
        ev.env = self
        ev.callbacks = []
        ev._state = _PENDING
        ev._ok = True
        ev._value = None
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        # Fields written via __new__ and the bucket insert inlined (one
        # Timeout per cost charge — the hottest factory in the engine).
        to = _TIMEOUT_NEW(Timeout)
        to.env = self
        to.callbacks = []
        to._state = _TRIGGERED
        to._ok = True
        to._value = value
        if delay > 0:
            t = self._now + delay
        elif delay == 0:
            cur = self._cur
            if cur is not None:
                cur.append(_EVENT)
                cur.append(to)
                return to
            t = self._now
        else:
            raise ValueError(f"negative timeout delay: {delay!r}")
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            pool = self._pool
            bucket = pool.pop() if pool else []
            buckets[t] = bucket
            _heappush(self._times, t)
        bucket.append(_EVENT)
        bucket.append(to)
        return to

    def timeout_at(self, t: float, value: Any = None) -> Timeout:
        """Create a Timeout that fires at the absolute simulated time ``t``.

        For a completion time computed ahead as a number: the bucket key is
        ``t`` itself, so no ``now + delay`` rounding separates it from the
        arithmetic that produced it. ``t == now`` joins the live cohort like
        a zero delay; a ``t`` in the past raises ``ValueError``. Built and
        enqueued exactly like :meth:`timeout`, so it is eligible for the
        Timeout hop.
        """
        to = _TIMEOUT_NEW(Timeout)
        to.env = self
        to.callbacks = []
        to._state = _TRIGGERED
        to._ok = True
        to._value = value
        if t == self._now:
            cur = self._cur
            if cur is not None:
                cur.append(_EVENT)
                cur.append(to)
                return to
        elif not t > self._now:  # also rejects NaN
            raise ValueError(f"timeout_at({t!r}) is before now ({self._now!r})")
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            pool = self._pool
            bucket = pool.pop() if pool else []
            buckets[t] = bucket
            _heappush(self._times, t)
        bucket.append(_EVENT)
        bucket.append(to)
        return to

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a process driving ``generator``; returns its Process event."""
        # Fields written via __new__ (one process per exchange wait chain).
        # The generator's send and our resume callback are bound once: a
        # fresh bound method per resume was measurable on the exchange hot
        # path. The slot-resume twin is bound lazily (stale yields only).
        if type(generator) is not _GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        p = _PROCESS_NEW(Process)
        p.env = self
        p.callbacks = []
        p._state = _PENDING
        p._ok = True
        p._value = None
        p._generator = generator
        p._name = name
        p._send = generator.send
        p._resume_cb = p._resume
        p._resume_with_cb = None
        cur = self._cur
        if cur is not None:
            cur.append(_boot_process)
            cur.append(p)
            return p
        t = self._now
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            pool = self._pool
            bucket = pool.pop() if pool else []
            buckets[t] = bucket
            _heappush(self._times, t)
        bucket.append(_boot_process)
        bucket.append(p)
        return p

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds when all ``events`` succeed."""
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def _insert(self, t, a, b) -> None:
        """Append slot pair ``(a, b)`` to the bucket at absolute time ``t``."""
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            pool = self._pool
            bucket = pool.pop() if pool else []
            buckets[t] = bucket
            _heappush(self._times, t)
        bucket.append(a)
        bucket.append(b)

    def schedule(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Slot-based scheduling: run ``fn(arg)`` ``delay`` seconds from now.

        This is the engine's allocation-free alternative to spawning a
        process around a :class:`Timeout`: no Event, no generator, no
        callback list — just a slot pair in a time bucket. Bucket append
        order is scheduling order, so ordering against same-time events is
        exactly what an equivalently scheduled event would see.
        """
        if delay > 0:  # common case first; bucket insert inlined
            t = self._now + delay
        elif delay == 0:
            cur = self._cur
            if cur is not None:
                cur.append(fn)
                cur.append(arg)
                return
            t = self._now
        else:
            raise ValueError(f"negative schedule delay: {delay!r}")
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            pool = self._pool
            bucket = pool.pop() if pool else []
            buckets[t] = bucket
            _heappush(self._times, t)
        bucket.append(fn)
        bucket.append(arg)

    def schedule_now(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Slot-based scheduling at the current time (cohort fast path)."""
        cur = self._cur
        if cur is not None:
            cur.append(fn)
            cur.append(arg)
        else:
            self._insert(self._now, fn, arg)

    def schedule_cancellable(
        self, delay: float, fn: Callable[[Any], None], arg: Any = None
    ) -> int:
        """Like :meth:`schedule`, but returns an ``int`` handle for
        :meth:`cancel`.

        The callback is parked in a preallocated slot pool (parallel
        ``fn``/``arg`` arrays recycled through an integer freelist), so the
        steady state allocates nothing per entry. Contract: a handle dies
        the moment its callback fires or :meth:`cancel` is called — callers
        must clear their stored handle in the callback itself and never
        cancel twice (handles are recycled; see
        :class:`~repro.des.resources.SharedBandwidth` for the idiom).
        """
        if delay < 0:
            raise ValueError(f"negative schedule delay: {delay!r}")
        free = self._slot_free
        if free:
            h = free.pop()
            self._slot_fn[h] = fn
            self._slot_arg[h] = arg
        else:
            h = len(self._slot_fn)
            self._slot_fn.append(fn)
            self._slot_arg.append(arg)
        if delay == 0:
            cur = self._cur
            if cur is not None:
                cur.append(_CANCELLABLE)
                cur.append(h)
                return h
            t = self._now
        else:
            t = self._now + delay
        self._insert(t, _CANCELLABLE, h)
        return h

    def cancel(self, handle: int) -> None:
        """Tombstone a pending :meth:`schedule_cancellable` entry.

        The queue is untouched: the slot is nulled and the drain loop skips
        the dead pair when its time comes. Raises if the handle's slot is
        already empty (double-cancel, or cancel after the callback fired).
        """
        slot_fn = self._slot_fn
        if slot_fn[handle] is None:
            raise SimulationError(
                "cancel() of a dead handle (already cancelled or already fired)"
            )
        slot_fn[handle] = None
        self._slot_arg[handle] = None

    def _record_crash(self, process: Process, exc: BaseException) -> None:
        self._crashed.append((process, exc))

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * a ``float`` — run until simulated time reaches it;
        * an :class:`Event` — run until that event is processed, returning
          its value (raising its exception if it failed). An event that was
          already processed returns (or raises) at once, running nothing.

        If a process crashes and nothing was waiting on it, the first such
        crash is re-raised here so errors are never silently swallowed.
        """
        stop_event: Optional[Event] = None
        stop_key = None
        if isinstance(until, Event):
            if until._state == _PROCESSED:
                if not until._ok:
                    raise until._value
                return until._value
            stop_event = until
        elif until is not None:
            stop_key = float(until)
            if stop_key < self._now:
                raise ValueError("until is in the past")

        # Hot loop: heap consulted only at cohort boundaries; the cohort is
        # drained inline (event callback execution unrolled) with everything
        # in locals.
        times = self._times
        buckets = self._buckets
        pool = self._pool
        heappop = _heappop
        crashed = self._crashed
        slot_fn = self._slot_fn
        slot_arg = self._slot_arg
        slot_free = self._slot_free
        kind_event = _EVENT  # sentinels as locals: LOAD_FAST per entry
        kind_cancellable = _CANCELLABLE
        cur = self._cur
        i = self._cur_i
        self._hop_end = -1  # only plain run() arms the Timeout hop
        try:
            if stop_event is None and stop_key is None:
                # Specialized drain for plain run(): no stop checks per
                # entry or per cohort (this is the sweep/report regeneration
                # path, so the duplication buys real throughput).
                while True:
                    if cur is None:
                        if not times:
                            break
                        t = heappop(times)
                        self._now = t
                        cur = self._cur = buckets[t]
                        i = 0
                        self._hop_end = -1
                    # Appends made by the executing entries extend the live
                    # cohort: drain up to the length last read, then re-read
                    # it. (Cohorts average ~1.5 entries in the experiment
                    # sweeps, where this beats catching an IndexError at the
                    # end of each; wide cohorts pay no len() per entry.)
                    n = len(cur)
                    while i < n:
                        while i < n:
                            a = cur[i]
                            b = cur[i + 1]
                            i += 2
                            if a is kind_event:
                                b._state = _PROCESSED
                                callbacks = b.callbacks
                                if callbacks:
                                    b.callbacks = []
                                    if len(callbacks) == 1:
                                        # A sole callback may be a process
                                        # resume allowed to hop
                                        # (Process._resume).
                                        self._hop_end = i
                                        callbacks[0](b)
                                    else:
                                        for cb in callbacks:
                                            cb(b)
                            elif a is kind_cancellable:
                                fn = slot_fn[b]
                                if fn is None:  # tombstone: dead slot, skip
                                    slot_free.append(b)
                                    continue
                                slot_fn[b] = None
                                arg = slot_arg[b]
                                slot_arg[b] = None
                                slot_free.append(b)
                                fn(arg)
                            else:
                                a(b)
                            if crashed:
                                raise crashed[0][1]
                        n = len(cur)
                    # Cohort exhausted: recycle its bucket.
                    del buckets[self._now]
                    cur.clear()
                    if len(pool) < _POOL_MAX:
                        pool.append(cur)
                    cur = self._cur = None
                    i = 0
                if crashed:
                    raise crashed[0][1]
                return None
            while True:
                if cur is None:
                    if not times:
                        break
                    t = times[0]
                    if stop_key is not None and t > stop_key:
                        self._now = stop_key
                        break
                    heappop(times)
                    self._now = t
                    cur = self._cur = buckets[t]
                    i = 0
                while i < len(cur):
                    a = cur[i]
                    b = cur[i + 1]
                    i += 2
                    if a is kind_event:
                        b._state = _PROCESSED
                        callbacks = b.callbacks
                        if callbacks:
                            b.callbacks = []
                            for cb in callbacks:
                                cb(b)
                    elif a is kind_cancellable:
                        fn = slot_fn[b]
                        if fn is None:  # tombstone: dead slot, skip
                            slot_free.append(b)
                            continue
                        slot_fn[b] = None
                        arg = slot_arg[b]
                        slot_arg[b] = None
                        slot_free.append(b)
                        fn(arg)
                    else:
                        a(b)
                    if crashed and (stop_event is None or not stop_event.triggered):
                        raise crashed[0][1]
                    if stop_event is not None and stop_event._state == _PROCESSED:
                        if not stop_event._ok:
                            raise stop_event._value
                        return stop_event._value
                # Cohort exhausted: recycle its bucket, back to the heap.
                del buckets[self._now]
                cur.clear()
                if len(pool) < _POOL_MAX:
                    pool.append(cur)
                cur = self._cur = None
                i = 0
        finally:
            self._cur_i = i

        if stop_event is not None and not stop_event.processed:
            raise SimulationError(
                "run(until=event) exhausted the queue before the event fired "
                "(deadlock: some process is waiting on an event nobody triggers)"
            )
        if crashed:
            raise crashed[0][1]
        return None
