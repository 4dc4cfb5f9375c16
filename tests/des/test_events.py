"""Unit tests for the event primitives."""

import pytest

from repro.des import AllOf, Environment
from repro.des.events import EventAlreadyTriggered


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_fresh_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        with pytest.raises(AttributeError):
            ev.value

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_succeed_twice_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_then_succeed_raises(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()

    def test_callbacks_run_on_processing(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("x")
        env.run()
        assert seen == ["x"]
        assert ev.processed

    def test_unhandled_failure_crashes_run(self, env):
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        ev.defuse()
        env.run()  # must not raise


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        t = env.timeout(5.0)
        env.run()
        assert env.now == 5.0
        assert t.processed

    def test_timeout_value(self, env):
        t = env.timeout(1.0, value="done")
        env.run()
        assert t.value == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeouts_fire_in_order(self, env):
        order = []
        for d in (3.0, 1.0, 2.0):
            env.timeout(d).callbacks.append(
                lambda e, d=d: order.append(d)
            )
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_fifo(self, env):
        order = []
        for i in range(5):
            env.timeout(1.0).callbacks.append(lambda e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]


class TestConditions:
    def test_allof_waits_for_all(self, env):
        a, b = env.timeout(1, value="a"), env.timeout(2, value="b")
        cond = AllOf(env, [a, b])
        env.run(cond)
        assert env.now == 2
        assert list(cond.value.values()) == ["a", "b"]

    def test_empty_allof_fires_immediately(self, env):
        cond = AllOf(env, [])
        env.run(cond)
        assert env.now == 0
        assert len(cond.value) == 0

    def test_condition_with_already_processed_event(self, env):
        a = env.timeout(1, value="a")
        env.run(until=1.5)
        assert a.processed
        cond = AllOf(env, [a])
        env.run(cond)
        assert cond.value[a] == "a"

    def test_failed_subevent_fails_condition(self, env):
        a = env.event()
        cond = AllOf(env, [a])
        cond.defuse()

        def failer():
            yield env.timeout(1)
            a.fail(ValueError("sub"))

        env.process(failer())
        env.run()
        assert cond.triggered and not cond.ok
        assert isinstance(cond.value, ValueError)

    def test_mixed_env_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AllOf(env, [env.event(), other.event()])

    def test_condition_value_mapping(self, env):
        a, b = env.timeout(1, value=10), env.timeout(1, value=20)
        cond = AllOf(env, [a, b])
        env.run(cond)
        cv = cond.value
        assert cv[a] == 10 and cv[b] == 20
        assert cv == {a: 10, b: 20}
        assert list(cv.items()) == [(a, 10), (b, 20)]
        assert len(cv) == 2
        with pytest.raises(KeyError):
            cv[env.event()]
