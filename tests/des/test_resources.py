"""Unit tests for Store and Resource primitives."""

import pytest

from repro.des import Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("a")

        def consumer():
            item = yield store.get()
            return item

        p = env.process(consumer())
        assert env.run(until=p) == "a"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got_at = []

        def consumer():
            item = yield store.get()
            got_at.append((env.now, item))

        def producer():
            yield env.timeout(5)
            store.put("x")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got_at == [(5, "x")]

    def test_fifo_order(self, env):
        store = Store(env)
        for i in range(3):
            store.put(i)
        out = []

        def consumer():
            for _ in range(3):
                out.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert out == [0, 1, 2]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        accepted = []

        def producer():
            for i in range(2):
                yield store.put(i)
                accepted.append((env.now, i))

        def consumer():
            yield env.timeout(10)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert accepted == [(0, 0), (10, 1)]

    def test_multiple_getters_fifo(self, env):
        store = Store(env)
        winners = []

        def consumer(tag):
            item = yield store.get()
            winners.append((tag, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1)
            store.put("x")
            store.put("y")

        env.process(producer())
        env.run()
        assert winners == [("first", "x"), ("second", "y")]

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        assert len(store) == 1


class TestResource:
    def test_request_release(self, env):
        res = Resource(env, capacity=1)
        log = []

        def worker(tag, hold):
            yield res.request()
            log.append((env.now, tag, "acq"))
            yield env.timeout(hold)
            res.release()

        env.process(worker("a", 5))
        env.process(worker("b", 5))
        env.run()
        assert log == [(0, "a", "acq"), (5, "b", "acq")]

    def test_capacity_two(self, env):
        res = Resource(env, capacity=2)
        assert res.try_request()
        assert res.try_request()
        assert not res.try_request()
        assert res.available == 0
        res.release()
        assert res.available == 1

    def test_release_unacquired_raises(self, env):
        res = Resource(env)
        with pytest.raises(RuntimeError):
            res.release()

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_handoff_keeps_count(self, env):
        """Releasing with waiters hands the slot over without going free."""
        res = Resource(env, capacity=1)
        order = []

        def holder():
            yield res.request()
            yield env.timeout(1)
            res.release()

        def waiter():
            yield res.request()
            order.append(env.now)
            assert res.available == 0
            res.release()

        env.process(holder())
        env.process(waiter())
        env.run()
        assert order == [1]
        assert res.available == 1
