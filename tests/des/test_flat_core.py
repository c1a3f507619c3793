"""Flat event core vs reference ``(time, counter)`` FIFO semantics.

The cohort engine (docs/MODEL.md §12) replaces the merged heap+deque of the
previous engine with per-time buckets and no per-entry counter; the claim is
that bucket-FIFO draining is observably identical to a global
``(time, counter)`` priority queue. These tests check that claim directly:

* a hypothesis property test executes randomized programs — mixes of event
  timeouts (relative and absolute-time), bare callback slots, cancellable
  slots (some tombstoned), and zero-delay bursts, nested so that entries are
  scheduled both up front and from inside running cohorts — on the real
  engine and on an oracle-simple reference executor, and requires the exact
  same firing order;
* a second property drives generator processes that yield Timeouts (lone,
  tied, zero-delay, absolute-time, shared by several waiters, watched by
  extra callbacks) through ``run()``, ``run(until=float)`` and
  ``run(until=event)``, and requires the same firing order and the same
  ``env.now`` at every firing as a reference executor without the engine's
  Timeout hop;
* deterministic stress tests hammer tombstone cancellation (cancel-heavy
  queues, handle recycling, cancel/fire error contract);
* a tracemalloc smoke check pins the allocation-free steady state.
"""

import heapq
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, SimulationError

# ---------------------------------------------------------------------------
# Program representation
#
# An action = (delay, kind, cancel, children). Executing an action fires its
# label and schedules its children (exercising scheduling from *inside* a
# draining cohort). Labels are assigned by a pre-order walk of the program so
# both executors agree on them independently of execution order.
# ---------------------------------------------------------------------------

_DELAYS = [0.0, 0.0, 0.25, 0.5, 1.0]  # 0.0 twice: bias toward same-time bursts
#: "event_at" is an absolute-time Timeout at the same ``now + delay`` key
#: as "event", so it ties with relative Timeouts and slots on one float.
_KINDS = ["event", "event_at", "slot", "cancellable"]


def _label_program(program):
    """Attach a pre-order label to every action; returns labelled copies."""
    counter = [0]

    def walk(action):
        delay, kind, cancel, children = action
        label = counter[0]
        counter[0] += 1
        return (label, delay, kind, cancel, [walk(c) for c in children])

    return [walk(a) for a in program]


def run_reference(program):
    """Oracle: a single heap of ``(time, counter, action)`` entries.

    This is the seed engine's semantics — every scheduled entry gets a
    global monotonically increasing counter; execution pops the least
    ``(time, counter)``; a cancelled entry is a no-op when popped.
    """
    labelled = _label_program(program)
    order = []
    heap = []
    counter = [0]

    def push(action, now):
        heapq.heappush(heap, (now + action[1], counter[0], action))
        counter[0] += 1

    for action in labelled:
        push(action, 0.0)
    while heap:
        t, _, action = heapq.heappop(heap)
        label, _delay, kind, cancel, children = action
        if kind == "cancellable" and cancel:
            continue  # tombstone: dead when reached
        order.append(label)
        for child in children:
            push(child, t)
    return order


def run_engine(program):
    """Execute the same program on the production flat-core engine."""
    labelled = _label_program(program)
    env = Environment()
    order = []

    def schedule_action(action):
        label, delay, kind, cancel, children = action

        def fire(_arg):
            order.append(label)
            for child in children:
                schedule_action(child)

        if kind == "event":
            ev = env.timeout(delay, label)
            ev.callbacks.append(fire)
        elif kind == "event_at":
            ev = env.timeout_at(env.now + delay, label)
            ev.callbacks.append(fire)
        elif kind == "slot":
            env.schedule(delay, fire)
        else:
            handle = env.schedule_cancellable(delay, fire)
            if cancel:
                env.cancel(handle)

    for action in labelled:
        schedule_action(action)
    env.run()
    return order


def _actions(depth: int):
    base = st.tuples(
        st.sampled_from(_DELAYS),
        st.sampled_from(_KINDS),
        st.booleans(),
        st.just([]),
    )
    if depth == 0:
        return base
    return st.tuples(
        st.sampled_from(_DELAYS),
        st.sampled_from(_KINDS),
        st.booleans(),
        st.lists(_actions(depth - 1), max_size=3),
    )


class TestOrderEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_actions(2), min_size=1, max_size=10))
    def test_engine_order_matches_reference_fifo(self, program):
        assert run_engine(program) == run_reference(program)

    def test_interleaved_kinds_same_bucket(self):
        """Events, slots, and cancellables interleaved at one time share the
        FIFO exactly (the bucket replaces the global counter)."""
        env = Environment()
        order = []
        env.timeout(1.0, "e0").callbacks.append(lambda ev: order.append(ev.value))
        env.schedule(1.0, order.append, "s0")
        h = env.schedule_cancellable(1.0, order.append, "c0")
        env.timeout(1.0, "e1").callbacks.append(lambda ev: order.append(ev.value))
        env.schedule_cancellable(1.0, order.append, "c1")
        env.schedule(1.0, order.append, "s1")
        env.cancel(h)  # tombstone c0; everything else keeps its position
        env.run()
        assert order == ["e0", "s0", "e1", "c1", "s1"]

    def test_zero_delay_burst_from_inside_cohort(self):
        """Zero-delay entries scheduled by a firing entry join the *live*
        cohort after everything already scheduled for that time."""
        env = Environment()
        order = []

        def spawn(_a):
            order.append("spawn")
            env.schedule(0.0, order.append, "child")
            env.timeout(0.0, "child-ev").callbacks.append(
                lambda ev: order.append(ev.value)
            )

        env.schedule(1.0, spawn)
        env.schedule(1.0, order.append, "sibling")
        env.run()
        assert order == ["spawn", "sibling", "child", "child-ev"]

    def test_timeout_at_now_joins_the_live_cohort(self):
        """``timeout_at(now)`` from inside a cohort queues behind what is
        already there, exactly like a zero-delay Timeout."""
        env = Environment()
        order = []

        def spawn(_a):
            env.timeout_at(env.now, "at").callbacks.append(
                lambda ev: order.append(ev.value)
            )
            env.timeout(0.0, "zero").callbacks.append(lambda ev: order.append(ev.value))

        env.schedule(1.0, spawn)
        env.schedule(1.0, order.append, "sibling")
        env.run()
        assert order == ["sibling", "at", "zero"]

    def test_timeout_at_in_the_past_raises(self):
        env = Environment()
        env.schedule(1.0, lambda _a: None)
        env.run()
        assert env.now == 1.0
        with pytest.raises(ValueError, match="before now"):
            env.timeout_at(0.5)
        with pytest.raises(ValueError, match="before now"):
            env.timeout_at(float("nan"))
        assert env._buckets == {} and env._times == []


# ---------------------------------------------------------------------------
# Processes and the Timeout hop
#
# A process program is a list of steps, each (op, arg):
#   ("timeout", d)  yield env.timeout(d)
#   ("at", d)       yield env.timeout_at(env.now + d) — absolute time
#   ("wait", k)     yield shared event k (several processes may wait on it,
#                   and it may already be processed: the stale-resume path)
#   ("slot", d)     env.schedule(d, record) — a bare slot, to tie or fill
#                   cohorts around the process's own timeouts
#   ("observe", k)  append a recording callback to shared event k behind
#                   whatever waiters it already has (a tracer's shape)
# Every firing logs (label, env.now); both executors run the same
# generator code, so labels agree independently of execution order.
# ---------------------------------------------------------------------------

_N_SHARED = 3


class _RefEvent:
    __slots__ = ("callbacks", "processed", "value")

    def __init__(self, value=None):
        self.callbacks = []
        self.processed = False
        self.value = value


class _RefEnv:
    """Oracle: one ``(time, counter)`` heap, no cohorts, no hop."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._n = 0

    def _push(self, t, fn, arg):
        heapq.heappush(self._heap, (t, self._n, fn, arg))
        self._n += 1

    def _fire(self, ev):
        ev.processed = True
        callbacks, ev.callbacks = ev.callbacks, []
        for cb in callbacks:
            cb(ev)

    def timeout(self, delay, value=None):
        ev = _RefEvent(value)
        self._push(self.now + delay, self._fire, ev)
        return ev

    def timeout_at(self, t, value=None):
        ev = _RefEvent(value)
        self._push(t, self._fire, ev)
        return ev

    def schedule(self, delay, fn, arg=None):
        self._push(self.now + delay, fn, arg)

    def process(self, gen):
        def resume(ev):
            try:
                target = gen.send(None if ev is None else ev.value)
            except StopIteration:
                return
            if target.processed:
                self._push(self.now, resume, target)
            else:
                target.callbacks.append(resume)

        self._push(self.now, resume, None)

    def _step(self):
        t, _, fn, arg = heapq.heappop(self._heap)
        self.now = t
        fn(arg)

    def run(self, until=None):
        heap = self._heap
        if until is None:
            while heap:
                self._step()
        elif isinstance(until, _RefEvent):
            while not until.processed:
                self._step()
        else:
            while heap and heap[0][0] <= until:
                self._step()
            if heap:
                self.now = until


def _process_program(env, pid, steps, shared, log):
    for j, (op, arg) in enumerate(steps):
        if op == "timeout":
            yield env.timeout(arg)
        elif op == "at":
            yield env.timeout_at(env.now + arg)
        elif op == "wait":
            yield shared[arg]
        elif op == "slot":
            env.schedule(arg, lambda _a, lbl=("slot", pid, j): log.append((lbl, env.now)))
        elif not shared[arg].processed:  # "observe"
            shared[arg].callbacks.append(
                lambda _ev, lbl=("observe", pid, j): log.append((lbl, env.now))
            )
        log.append(((pid, j), env.now))


def run_processes(env, shared_delays, procs, stops):
    """Run one process program on ``env``; returns the firing log."""
    log = []
    shared = [env.timeout(d, k) for k, d in enumerate(shared_delays)]
    for k, ev in enumerate(shared):
        ev.callbacks.append(lambda _ev, lbl=("shared", k): log.append((lbl, env.now)))
    for pid, steps in enumerate(procs):
        env.process(_process_program(env, pid, steps, shared, log))
    for stop in stops:
        if isinstance(stop, int):  # run(until=shared event)
            env.run(until=shared[stop])
        elif stop >= env.now:
            env.run(until=stop)
        log.append((("stop", stop), env.now))
    env.run()
    log.append((("end",), env.now))
    return log


_STEPS = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("timeout"), st.sampled_from([0.25, 0.5, 1.0, 0.75])),
    st.tuples(st.just("at"), st.sampled_from(_DELAYS + [0.75])),
    st.tuples(st.just("wait"), st.integers(0, _N_SHARED - 1)),
    st.tuples(st.just("slot"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("observe"), st.integers(0, _N_SHARED - 1)),
)
_STOPS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.5]),
    st.integers(0, _N_SHARED - 1),
)


class TestTimeoutHop:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(_DELAYS), min_size=_N_SHARED, max_size=_N_SHARED),
        st.lists(st.lists(_STEPS, max_size=8), min_size=1, max_size=4),
        st.lists(_STOPS, max_size=2),
    )
    def test_processes_match_reference(self, shared_delays, procs, stops):
        got = run_processes(Environment(), shared_delays, procs, stops)
        want = run_processes(_RefEnv(), shared_delays, procs, stops)
        assert got == want

    def test_later_callback_sees_the_event_time(self):
        """An event's first callback resumes a process that yields a lone
        Timeout; the second callback must still run at the event's time,
        so the resume may not advance the clock past it."""
        env = Environment()
        seen = []
        ev = env.timeout(1.0)

        def proc():
            yield ev
            seen.append(("proc", env.now))
            yield env.timeout(1.0)  # sole entry of the earliest bucket
            seen.append(("proc", env.now))

        env.process(proc())
        env.schedule(
            0.5,
            lambda _a: ev.callbacks.append(lambda _e: seen.append(("tracer", env.now))),
        )
        env.run()
        assert seen == [("proc", 1.0), ("tracer", 1.0), ("proc", 2.0)]

    def test_lone_timeout_chain_advances_the_clock(self):
        """A process alone in the queue hops through its Timeouts with the
        same ``now + delay`` arithmetic the loop would have used."""
        env = Environment()
        stamps = []

        def proc():
            for d in (0.1, 0.2, 0.3):
                value = yield env.timeout(d, d)
                stamps.append((value, env.now))

        env.process(proc())
        env.run()
        assert stamps == [(0.1, 0.1), (0.2, 0.1 + 0.2), (0.3, 0.1 + 0.2 + 0.3)]
        assert env._buckets == {} and env._times == []

    @pytest.mark.parametrize("absolute", [False, True])
    def test_lone_timeout_hops(self, absolute):
        """A lone process's Timeout is taken by the hop whether it is built
        from a delay or an absolute time: the resume keeps running in the
        same call, so the live cohort list carries over to the new time
        (the loop would have popped the Timeout's own bucket list). The
        first yield comes from the bootstrap slot, which never hops."""
        env = Environment()
        seen = []

        def proc():
            yield env.timeout(0.25)
            for t in (0.5, 1.5):
                cohort = env._cur
                if absolute:
                    yield env.timeout_at(t)
                else:
                    yield env.timeout(t - env.now)
                seen.append((env.now, env._cur is cohort))

        env.process(proc())
        env.run()
        assert seen == [(0.5, True), (1.5, True)]


class TestCancellation:
    def test_cancelled_slot_never_fires(self):
        env = Environment()
        fired = []
        h = env.schedule_cancellable(1.0, fired.append, "x")
        env.cancel(h)
        env.run()
        assert fired == []
        assert env.now == 1.0  # the tombstoned bucket still advances the clock

    def test_double_cancel_raises(self):
        env = Environment()
        h = env.schedule_cancellable(1.0, lambda _a: None)
        env.cancel(h)
        with pytest.raises(SimulationError, match="dead handle"):
            env.cancel(h)

    def test_cancel_after_fire_raises(self):
        env = Environment()
        h = env.schedule_cancellable(1.0, lambda _a: None)
        env.run()
        with pytest.raises(SimulationError, match="dead handle"):
            env.cancel(h)

    def test_handles_are_recycled(self):
        """The slot pool reaches a steady state: sequential schedule/fire
        cycles reuse one slot index instead of growing the arrays."""
        env = Environment()
        env.schedule_cancellable(1.0, lambda _a: None)
        env.run()
        for _ in range(50):
            env.schedule_cancellable(1.0, lambda _a: None)
            env.run()
        assert len(env._slot_fn) == 1

    def test_cancellation_heavy_stress(self):
        """90% of a large cancellable population is tombstoned; survivors
        fire in exact scheduling order and the pool fully recycles."""
        env = Environment()
        fired = []
        survivors = []
        handles = []
        for i in range(2000):
            t = 1.0 + (i % 7)
            handles.append((i, t, env.schedule_cancellable(t, fired.append, i)))
        for i, _t, h in handles:
            if i % 10 != 0:
                env.cancel(h)
            else:
                survivors.append((_t, i))
        env.run()
        survivors.sort()  # (time, scheduling order) — the FIFO contract
        assert fired == [i for _t, i in survivors]
        assert len(env._slot_free) == len(env._slot_fn)  # every slot recycled

    def test_cancel_from_inside_cohort(self):
        """An entry can tombstone a later same-time entry while the cohort
        is already draining."""
        env = Environment()
        fired = []
        h = {}

        def killer(_a):
            fired.append("killer")
            env.cancel(h["victim"])

        env.schedule(1.0, killer)
        h["victim"] = env.schedule_cancellable(1.0, fired.append, "victim")
        env.schedule(1.0, fired.append, "bystander")
        env.run()
        assert fired == ["killer", "bystander"]


class TestEnqueueValidation:
    def test_schedule_cancellable_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative"):
            env.schedule_cancellable(-0.5, lambda _a: None)


class TestAllocationFreeSteadyState:
    def test_steady_state_scheduling_allocates_no_per_entry_objects(self):
        """Scheduling N entries into warmed buckets must not allocate per
        entry: the tracemalloc live-block delta is bounded by list growth
        (O(log N) reallocations), not O(N) tuples/wrappers."""
        env = Environment()
        sink = []

        def cb(_a):
            pass

        # Warm up: create the buckets, the pool, and the slot arrays.
        for _ in range(16):
            env.schedule(1.0, cb)
            env.schedule_cancellable(1.0, cb)
        env.run()
        env.schedule(1.0, cb)  # re-create the t=now+1 bucket

        n = 4096
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(n):
            env.schedule(1.0, cb)  # same bucket: two appends, no objects
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        stats = after.compare_to(before, "filename")
        new_blocks = sum(s.count_diff for s in stats if s.count_diff > 0)
        # List doubling yields a handful of reallocations; per-entry tuple
        # churn would show up as ~n new blocks.
        assert new_blocks < n / 8, (
            f"{new_blocks} new allocations for {n} scheduled entries — "
            "per-entry allocation crept back into the hot path"
        )
        env.run()
        assert sink == []
