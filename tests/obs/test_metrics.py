"""Unit tests for the metrics registry and its TimeSeries sampling."""

import pytest

from repro.des import Environment, SeriesBundle
from repro.obs import Counter, Gauge, MetricsRegistry, install_metrics_sampler


@pytest.fixture
def env():
    return Environment()


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.get() == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_set_get(self):
        g = Gauge("load")
        g.set(42.0)
        assert g.get() == 42.0

    def test_callback_gauge(self):
        state = {"v": 7}
        g = Gauge("load", fn=lambda: state["v"])
        assert g.get() == 7.0
        state["v"] = 9
        assert g.get() == 9.0
        with pytest.raises(ValueError):
            g.set(1.0)


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "z" not in reg

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        reg.gauge("y")
        with pytest.raises(ValueError):
            reg.counter("y")

    def test_collision_error_names_both_kinds(self):
        """The error must say what the name already is and what was
        asked for — not just that something went wrong."""
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(
            ValueError, match=r"'x' is already registered as a counter.*requested a gauge"
        ):
            reg.gauge("x")
        with pytest.raises(
            ValueError, match=r"registered as a counter.*requested a histogram"
        ):
            reg.histogram("x")

    def test_gauge_fn_rebind(self):
        reg = MetricsRegistry()
        reg.gauge("g", fn=lambda: 1)
        reg.gauge("g", fn=lambda: 2)
        assert reg.snapshot()["g"] == 2.0

    def test_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(5)
        assert reg.snapshot() == {"c": 3.0, "g": 5.0}


class TestSampling:
    def test_sample_into_bundle(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        bundle = SeriesBundle()
        reg.sample_into(bundle, 1.0)
        reg.counter("c").inc()
        reg.sample_into(bundle, 2.0)
        assert bundle["c"].value_at(1.0) == 1.0
        assert bundle["c"].value_at(2.0) == 2.0

    def test_periodic_sampler_process(self, env):
        reg = env.enable_metrics()
        assert env.metrics is reg  # lazy singleton
        assert env.enable_metrics() is reg
        load = {"v": 0.0}
        reg.gauge("cpu.n1", fn=lambda: load["v"])
        bundle = SeriesBundle()
        install_metrics_sampler(env, reg, bundle, interval=1.0)

        def ramp():
            while True:
                yield env.timeout(1.0)
                load["v"] += 10.0

        env.process(ramp())
        env.run(until=3.5)
        series = bundle["cpu.n1"]
        assert series.value_at(0.0) == 0.0
        assert series.value_at(3.2) > 0.0

    def test_sampler_rejects_bad_interval(self, env):
        with pytest.raises(ValueError):
            install_metrics_sampler(env, MetricsRegistry(), SeriesBundle(), 0)

    def test_metrics_default_off(self, env):
        assert env.metrics is None


class TestSamplerLifecycle:
    """A run that ends mid-interval must leave a clean series: no
    partial rows, and resuming never duplicates a timestamp."""

    @staticmethod
    def _sampled(env, interval=1.0):
        reg = env.enable_metrics()
        reg.gauge("g", fn=lambda: 1.0)
        bundle = SeriesBundle()
        install_metrics_sampler(env, reg, bundle, interval=interval)
        return bundle

    def test_stop_mid_interval_writes_no_partial_row(self, env):
        bundle = self._sampled(env)
        env.run(until=2.5)
        assert list(bundle["g"].times) == [0.0, 1.0, 2.0]

    def test_resume_is_monotonic_with_no_duplicates(self, env):
        bundle = self._sampled(env)
        env.run(until=2.5)
        env.run(until=4.5)
        times = list(bundle["g"].times)
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_same_instant_rerun_adds_nothing(self, env):
        bundle = self._sampled(env)
        env.run(until=1.5)
        n = len(bundle["g"])
        env.run(until=1.5)
        assert len(bundle["g"]) == n
