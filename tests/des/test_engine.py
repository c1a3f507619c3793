"""Unit tests for the discrete-event engine."""

import pytest

from repro.des import AllOf, Environment, Event, SimulationError, Timeout


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_initially_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_succeed_carries_value(self, env):
        ev = env.event().succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_carries_exception(self, env):
        exc = RuntimeError("boom")
        ev = env.event().fail(exc)
        assert ev.triggered and not ev.ok
        assert ev.value is exc
        env.run()  # unhandled failed event with no waiters is fine


class TestTimeout:
    def test_advances_clock(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_value(self, env):
        result = {}

        def proc():
            result["v"] = yield env.timeout(1.0, value="hello")

        env.process(proc())
        env.run()
        assert result["v"] == "hello"

    def test_zero_delay_fires_now(self, env):
        fired = []

        def proc():
            yield env.timeout(0.0)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [0.0]


class TestProcess:
    def test_sequential_timeouts_accumulate(self, env):
        times = []

        def proc():
            yield env.timeout(1.0)
            times.append(env.now)
            yield env.timeout(2.5)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.0, 3.5]

    def test_return_value_is_process_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"

    def test_process_waits_on_process(self, env):
        def child():
            yield env.timeout(2.0)
            return 7

        def parent():
            v = yield env.process(child())
            return v + 1

        p = env.process(parent())
        assert env.run(until=p) == 8
        assert env.now == 2.0

    def test_exception_propagates_to_waiter(self, env):
        def child():
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def parent():
            try:
                yield env.process(child())
            except ValueError as e:
                return f"caught {e}"

        p = env.process(parent())
        assert env.run(until=p) == "caught child failed"

    def test_uncaught_crash_reraises_from_run(self, env):
        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("unhandled")

        env.process(proc())
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_yielding_non_event_fails_process(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError, match="yielded"):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_already_processed_event_resumes_immediately(self, env):
        ev = env.event().succeed("early")

        def late():
            yield env.timeout(3.0)
            v = yield ev  # processed long ago
            return (env.now, v)

        p = env.process(late())
        assert env.run(until=p) == (3.0, "early")

    def test_cross_environment_event_rejected(self, env):
        other = Environment()

        def proc():
            yield other.timeout(1.0)

        env.process(proc())
        with pytest.raises(SimulationError, match="different Environment"):
            env.run()

    def test_is_alive(self, env):
        def proc():
            yield env.timeout(1.0)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestDeterminism:
    def test_same_time_events_fifo(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for i in range(10):
            env.process(proc(i))
        env.run()
        assert order == list(range(10))

    def test_repeatability(self):
        def build_and_run():
            env = Environment()
            order = []

            def proc(tag, delay):
                yield env.timeout(delay)
                order.append((tag, env.now))

            for i, d in enumerate([3.0, 1.0, 2.0, 1.0]):
                env.process(proc(i, d))
            env.run()
            return order

        assert build_and_run() == build_and_run()


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc():
            vs = yield AllOf(env, [env.timeout(1.0, "a"), env.timeout(3.0, "b")])
            return (env.now, vs)

        p = env.process(proc())
        assert env.run(until=p) == (3.0, ["a", "b"])

    def test_all_of_empty_succeeds_immediately(self, env):
        def proc():
            vs = yield AllOf(env, [])
            return vs

        p = env.process(proc())
        assert env.run(until=p) == []

    def test_all_of_fails_fast(self, env):
        bad = env.event().fail(ValueError("nope"))

        def proc():
            try:
                yield AllOf(env, [env.timeout(10.0), bad])
            except ValueError:
                return env.now

        p = env.process(proc())
        assert env.run(until=p) == 0.0  # did not wait 10s

    def test_all_of_with_already_processed_events(self, env):
        done = env.event().succeed("x")

        def proc():
            yield env.timeout(1.0)
            vs = yield AllOf(env, [done, env.timeout(1.0, "y")])
            return vs

        p = env.process(proc())
        assert env.run(until=p) == ["x", "y"]


class TestRun:
    def test_run_until_time(self, env):
        ticks = []

        def proc():
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(proc())
        env.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert env.now == 3.5

    def test_run_until_past_raises(self, env):
        env.timeout(1.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_until_never_fires_is_deadlock(self, env):
        ev = env.event()

        def proc():
            yield ev

        env.process(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=env.process(proc()))
