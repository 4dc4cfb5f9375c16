"""Environment.close(): a finished simulation releases what it holds."""

import pytest

from repro.des import Environment


def processed(env):
    """Events processed so far, counted from outside as perfbench does."""
    return env._eid - len(env._queue)


@pytest.fixture
def env():
    return Environment()


def ticker(env, log):
    while True:
        yield env.timeout(1.0)
        log.append(env.now)


def test_close_keeps_now_and_processed_count(env):
    env.process(ticker(env, []))
    env.run(until=3.5)
    before = (env.now, processed(env))
    assert env._queue
    env.close()
    assert (env.now, processed(env)) == before
    assert not env._queue


def test_second_close_does_nothing(env):
    env.process(ticker(env, []))
    env.run(until=2.5)
    env.close()
    after = (env.now, env._eid, list(env._queue))
    env.close()
    assert (env.now, env._eid, list(env._queue)) == after


def test_run_after_close_raises(env):
    env.run(until=1.0)
    env.close()
    with pytest.raises(RuntimeError, match="closed"):
        env.run(until=2.0)
    with pytest.raises(RuntimeError, match="closed"):
        env.run()


def test_suspended_finally_runs_without_scheduling(env):
    ran = []
    forever = env.event()  # never triggered: only close() ends the wait

    def waiter():
        try:
            yield forever
        finally:
            ran.append("waiter")
            env.timeout(5.0)  # scheduled while closing: dropped

    def sleeper():
        try:
            yield env.timeout(100.0)
        finally:
            ran.append("sleeper")
            env.event().succeed()

    env.process(waiter())
    env.process(sleeper())
    env.run(until=1.0)
    before = (env.now, processed(env))
    env.close()
    assert ran == ["waiter", "sleeper"]
    assert not env._queue
    assert (env.now, processed(env)) == before


def test_finished_processes_are_not_held(env):
    def short():
        yield env.timeout(1.0)

    env.process(short())
    env.process(ticker(env, []))
    env.run(until=2.0)
    assert len(env._live) == 1


def test_close_detaches_observers(env):
    tracer = env.enable_tracing()
    metrics = env.enable_metrics()
    env.close()
    assert not env.tracer.enabled
    assert env.metrics is None
    assert env.faults is None
    assert tracer.enabled and metrics is not None
