"""DES edge cases: conditions over stale/failed events, until-boundaries,
crash-while-stopping, determinism, and the scheduling fast paths."""

import pytest

from repro.des import Environment


@pytest.fixture
def env():
    return Environment()


class TestConditionsOverProcessedEvents:
    """AllOf built after its constituents already ran."""

    def test_allof_over_already_processed(self, env):
        a = env.timeout(1.0, "a")
        b = env.timeout(2.0, "b")
        env.run()  # both now PROCESSED
        assert a.processed and b.processed
        cond = env.all_of([a, b])
        env.run(until=cond)
        assert cond.value == ["a", "b"]

    def test_allof_over_already_failed(self, env):
        boom = RuntimeError("boom")
        failed = env.event()
        failed.fail(boom)
        failed.callbacks.append(lambda ev: None)  # absorb so run() is clean
        env.run()
        assert failed.processed and not failed.ok
        cond = env.all_of([failed, env.timeout(1.0)])
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=cond)
        assert not cond.ok

    def test_allof_failure_detaches_from_pending(self, env):
        pending = env.event()
        bad = env.event()
        cond = env.all_of([pending, bad])
        bad.fail(RuntimeError("bad"))
        with pytest.raises(RuntimeError, match="bad"):
            env.run(until=cond)
        assert pending.callbacks == []  # the settled barrier lets go

    def test_process_yield_already_processed_event_gets_value(self, env):
        """The relay-free resume path must carry (ok, value) faithfully."""
        stale = env.timeout(0.5, "payload")
        env.run()
        got = []

        def proc():
            got.append((yield stale))
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"
        assert got == ["payload"]
        assert env.now == 0.5  # stale yield resumes at the current time

    def test_process_yield_already_processed_failed_event_raises_in(self, env):
        stale = env.event()
        stale.fail(ValueError("stale-fail"))
        stale.callbacks.append(lambda ev: None)
        env.run()
        caught = []

        def proc():
            try:
                yield stale
            except ValueError as exc:
                caught.append(str(exc))
            return None

        env.run(until=env.process(proc()))
        assert caught == ["stale-fail"]


class TestRunUntilBoundaries:
    def test_events_exactly_at_until_time_fire(self, env):
        fired = []
        env.timeout(1.0).callbacks.append(lambda ev: fired.append("t1"))
        env.timeout(2.0).callbacks.append(lambda ev: fired.append("t2"))
        env.timeout(2.0).callbacks.append(lambda ev: fired.append("t2b"))
        env.timeout(3.0).callbacks.append(lambda ev: fired.append("t3"))
        env.run(until=2.0)
        assert fired == ["t1", "t2", "t2b"]  # at-boundary events fire, later not
        assert env.now == 2.0
        env.run()
        assert fired[-1] == "t3"

    def test_zero_delay_at_until_time_fires(self, env):
        """Zero-delay cascades spawned exactly at t=until still run at t."""
        fired = []

        def chain(ev):
            fired.append("first")
            env.timeout(0.0).callbacks.append(lambda e: fired.append("second"))

        env.timeout(2.0).callbacks.append(chain)
        env.run(until=2.0)
        assert fired == ["first", "second"]
        assert env.now == 2.0

    def test_until_in_past_raises(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_until_processed_event_runs_nothing(self, env):
        """A stop event that was already processed returns its value at
        once: the clock and the queue are untouched, whatever is pending."""
        done = env.timeout(2.0, "v")
        env.run()
        fired = []
        env.timeout(0.5).callbacks.append(lambda ev: fired.append(env.now))
        assert env.run(until=done) == "v"
        assert env.now == 2.0 and fired == []
        env.run()
        assert env.now == 2.5 and fired == [2.5]
        assert env.run(until=done) == "v"  # empty queue: same answer

    def test_until_processed_failed_event_raises_at_once(self, env):
        failed = env.event()
        failed.fail(ValueError("stale"))
        failed.callbacks.append(lambda ev: None)
        env.run()
        env.timeout(1.0)
        with pytest.raises(ValueError, match="stale"):
            env.run(until=failed)
        assert env.now == 0.0


class TestCrashPropagation:
    def test_crash_while_stop_event_pending_raises(self, env):
        """A crash with nobody waiting must surface even under run(until=ev)."""
        stop = env.event()  # never triggered by anyone

        def crasher():
            yield env.timeout(1.0)
            raise RuntimeError("crashed-mid-run")

        env.process(crasher())
        with pytest.raises(RuntimeError, match="crashed-mid-run"):
            env.run(until=stop)

    def test_crash_after_stop_event_triggers_does_not_mask_result(self, env):
        """If the stop event resolves first, run returns its value."""
        stop = env.event()

        def finisher():
            yield env.timeout(1.0)
            stop.succeed("finished")

        def late_crasher():
            yield env.timeout(5.0)
            raise RuntimeError("too late to matter")

        env.process(finisher())
        env.process(late_crasher())
        assert env.run(until=stop) == "finished"

    def test_crash_observed_by_waiter_is_not_reraised(self, env):
        def crasher():
            yield env.timeout(1.0)
            raise ValueError("handled")

        def watcher():
            try:
                yield p
            except ValueError:
                return "saw-it"

        p = env.process(crasher())
        w = env.process(watcher())
        assert env.run(until=w) == "saw-it"


def _instrumented_order(seed_delays):
    """Run a mixed workload and record the exact (time, label) firing order."""
    env = Environment()
    order = []

    def worker(i, delay):
        for k in range(3):
            yield env.timeout(delay)
            order.append((env.now, f"w{i}.{k}"))
        stale = env.timeout(0.0)
        yield stale
        yield stale  # second yield takes the already-processed fast path
        order.append((env.now, f"w{i}.stale"))

    for i, d in enumerate(seed_delays):
        env.process(worker(i, d))
    env.run()
    return order


class TestDeterminism:
    def test_two_identical_runs_identical_event_order(self):
        delays = [0.25, 0.5, 0.25, 1.0, 0.125]
        assert _instrumented_order(delays) == _instrumented_order(delays)

    def test_same_time_events_fire_in_scheduling_order(self, env):
        order = []
        for i in range(5):
            env.timeout(1.0, i).callbacks.append(
                lambda ev: order.append(ev.value)
            )
        # Interleave zero-delay (ready-deque) entries scheduled later: they
        # run first (t=0 < t=1), in FIFO order.
        for i in range(5, 8):
            env.timeout(0.0, i).callbacks.append(
                lambda ev: order.append(ev.value)
            )
        env.run()
        assert order == [5, 6, 7, 0, 1, 2, 3, 4]

    def test_slot_and_event_share_fifo_counter(self, env):
        order = []
        env.timeout(1.0).callbacks.append(lambda ev: order.append("event"))
        env.schedule(1.0, lambda _: order.append("slot"))
        env.timeout(1.0).callbacks.append(lambda ev: order.append("event2"))
        env.run()
        assert order == ["event", "slot", "event2"]

    def test_negative_schedule_delay_raises(self, env):
        with pytest.raises(ValueError):
            env.schedule(-1.0, lambda _: None)
