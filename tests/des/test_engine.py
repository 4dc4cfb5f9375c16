"""Unit tests for the simulation environment run loop."""

import pytest

from repro.des import Environment


@pytest.fixture
def env():
    return Environment()


class TestRun:
    def test_run_until_time(self, env):
        hits = []
        for d in (1.0, 2.0, 3.0):
            env.timeout(d).callbacks.append(lambda e, d=d: hits.append(d))
        env.run(until=2.5)
        assert hits == [1.0, 2.0]
        assert env.now == 2.5

    def test_run_until_event_returns_value(self, env):
        t = env.timeout(4.0, value="payload")
        assert env.run(until=t) == "payload"
        assert env.now == 4.0

    def test_run_until_processed_event_is_noop(self, env):
        t = env.timeout(1.0, value="v")
        env.run(until=2.0)
        assert env.run(until=t) == "v"
        assert env.now == 2.0

    def test_run_until_event_failing_during_run_raises(self, env):
        ev = env.event()

        def failer():
            yield env.timeout(1.0)
            ev.fail(ValueError("boom"))

        env.process(failer())
        with pytest.raises(ValueError, match="boom"):
            env.run(until=ev)

    def test_run_until_already_failed_event_raises(self, env):
        """Regression: a processed *failed* event used to be returned as
        a value (``run`` handed back the exception instance) while the
        fail-during-run path raised.  Both paths must raise identically.
        """
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defuse()  # the failure is handled: don't crash the run loop
        env.run()  # processes the event
        assert ev.processed and not ev.ok
        with pytest.raises(ValueError, match="boom"):
            env.run(until=ev)

    def test_run_empty_returns_none(self, env):
        assert env.run() is None

    def test_run_until_past_raises(self, env):
        env.timeout(5.0)
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_run_until_never_triggered_event_raises(self, env):
        ev = env.event()
        env.timeout(1.0)
        with pytest.raises(RuntimeError, match="ran out of events"):
            env.run(until=ev)

    def test_horizon_beats_same_time_events(self, env):
        hits = []
        env.timeout(2.0).callbacks.append(lambda e: hits.append("late"))
        env.run(until=2.0)
        # The horizon is URGENT, so the 2.0 timeout must NOT have run.
        assert hits == []
        assert env.now == 2.0

    def test_clock_monotonic(self, env):
        stamps = []
        for d in (5.0, 1.0, 3.0, 1.0):
            env.timeout(d).callbacks.append(lambda e: stamps.append(env.now))
        env.run()
        assert stamps == sorted(stamps)

    def test_negative_schedule_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=-0.1)

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0
        env.timeout(1.0)
        env.run()
        assert env.now == 101.0


class TestRunUntilNow:
    def test_run_until_now_processes_no_events(self, env):
        """run(until=env.now) must return without touching the heap."""
        hits = []
        env.timeout(0.0).callbacks.append(lambda e: hits.append("t"))
        env.run(until=1.0)
        assert hits == ["t"]
        queue_before = list(env._queue)
        env.timeout(0.0).callbacks.append(lambda e: hits.append("same-time"))
        queue_before = list(env._queue)
        assert env.run(until=env.now) is None
        # Nothing fired, nothing popped — even events due *at* now.
        assert hits == ["t"]
        assert env._queue == queue_before
        assert env.now == 1.0

    def test_run_until_now_on_fresh_env(self):
        env = Environment()
        assert env.run(until=0.0) is None
        assert env.now == 0.0


class TestCallLater:
    def test_fires_with_argument(self, env):
        got = []
        env.call_later(1.5, got.append, "payload")
        env.run(until=2.0)
        assert got == ["payload"]
        assert env.now == 2.0

    def test_default_arg_is_none(self, env):
        got = []
        env.call_later(1.0, got.append)
        env.run(until=2.0)
        assert got == [None]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.call_later(-0.1, lambda _: None)

    def test_ordering_against_events_is_by_schedule_order(self, env):
        """Deferred calls and events at the same instant fire in schedule order."""
        order = []
        env.timeout(1.0).callbacks.append(lambda e: order.append("event-a"))
        env.call_later(1.0, lambda _: order.append("deferred"))
        env.timeout(1.0).callbacks.append(lambda e: order.append("event-b"))
        env.run(until=2.0)
        assert order == ["event-a", "deferred", "event-b"]
