"""Composition tests for AllOf."""

import pytest

from repro.des import AllOf, Environment


@pytest.fixture
def env():
    return Environment()


class TestNestedConditions:
    def test_process_waits_on_nested_condition(self, env):
        log = []

        def proc():
            yield AllOf(env, [env.timeout(2), AllOf(env, [env.timeout(1), env.timeout(5)])])
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [5]

    def test_condition_value_includes_inner_conditions(self, env):
        fast = env.timeout(1, value="fast")
        inner = AllOf(env, [fast])
        outer = AllOf(env, [inner])
        env.run(outer)
        assert inner in outer.value
        assert outer.value[inner] == {fast: "fast"}

    def test_allof_with_duplicate_event(self, env):
        t = env.timeout(2, value="x")
        cond = AllOf(env, [t, t])
        env.run(cond)
        assert env.now == 2
        assert cond.value[t] == "x"
