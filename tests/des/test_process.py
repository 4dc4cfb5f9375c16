"""Unit tests for generator-based processes."""

import pytest

from repro.des import Environment


@pytest.fixture
def env():
    return Environment()


class TestProcess:
    def test_simple_process_advances_time(self, env):
        log = []

        def proc():
            yield env.timeout(1)
            log.append(env.now)
            yield env.timeout(2)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [1, 3]

    def test_return_value_becomes_event_value(self, env):
        def proc():
            yield env.timeout(1)
            return "result"

        p = env.process(proc())
        assert env.run(until=p) == "result"

    def test_timeout_value_is_sent_into_generator(self, env):
        def proc():
            got = yield env.timeout(1, value="hello")
            return got

        p = env.process(proc())
        assert env.run(until=p) == "hello"

    def test_process_waits_on_process(self, env):
        def child():
            yield env.timeout(2)
            return 99

        def parent():
            result = yield env.process(child())
            return result * 2

        p = env.process(parent())
        assert env.run(until=p) == 198

    def test_yield_non_event_fails_process(self, env):
        def proc():
            yield 42

        p = env.process(proc())
        p.defuse()
        env.run()
        assert not p.ok
        assert isinstance(p.value, RuntimeError)

    def test_exception_propagates_to_waiter(self, env):
        def bad():
            yield env.timeout(1)
            raise ValueError("inner")

        def outer():
            try:
                yield env.process(bad())
            except ValueError as exc:
                return f"caught {exc}"

        p = env.process(outer())
        assert env.run(until=p) == "caught inner"

    def test_unhandled_process_exception_crashes_run(self, env):
        def bad():
            yield env.timeout(1)
            raise ValueError("unhandled")

        env.process(bad())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_is_alive(self, env):
        def proc():
            yield env.timeout(5)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_already_processed_target_is_fed_immediately(self, env):
        t = env.timeout(1, value="early")
        env.run(until=2)

        def proc():
            v = yield t
            return v

        p = env.process(proc())
        assert env.run(until=p) == "early"
        assert env.now == 2  # no extra time passed
