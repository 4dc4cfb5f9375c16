"""Unit tests for fluid CPU accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import Environment
from repro.net import IPAddr
from repro.oskern import Host


@pytest.fixture
def host():
    env = Environment()
    return Host(env, "n1", local_ip=IPAddr("192.168.0.1"), cores=2)


def advance(env, dt):
    env.run(until=env.now + dt)


class TestCpuAccounting:
    def test_utilization_from_demand(self, host):
        cpu = host.kernel.cpu
        p = host.kernel.spawn_process("p")
        cpu.set_demand(p, 0.5)
        assert cpu.utilization() == pytest.approx(25.0)  # 0.5 of 2 cores

    def test_utilization_caps_at_100(self, host):
        cpu = host.kernel.cpu
        for i in range(5):
            cpu.set_demand(host.kernel.spawn_process(f"p{i}"), 1.0)
        assert cpu.utilization() == 100.0

    def test_cpu_time_integrates(self, host):
        env = host.env
        cpu = host.kernel.cpu
        p = host.kernel.spawn_process("p")
        cpu.set_demand(p, 0.5)
        advance(env, 10)
        assert cpu.cpu_time_of(p) == pytest.approx(5.0)

    def test_saturation_scales_grants(self, host):
        env = host.env
        cpu = host.kernel.cpu
        a = host.kernel.spawn_process("a")
        b = host.kernel.spawn_process("b")
        cpu.set_demand(a, 3.0)
        cpu.set_demand(b, 1.0)
        advance(env, 4)
        # total demand 4 on 2 cores -> scale 0.5
        assert cpu.cpu_time_of(a) == pytest.approx(6.0)
        assert cpu.cpu_time_of(b) == pytest.approx(2.0)

    def test_demand_change_mid_flight(self, host):
        env = host.env
        cpu = host.kernel.cpu
        p = host.kernel.spawn_process("p")
        cpu.set_demand(p, 1.0)
        advance(env, 2)
        cpu.set_demand(p, 0.0)
        advance(env, 5)
        assert cpu.cpu_time_of(p) == pytest.approx(2.0)

    def test_remove_stops_accrual(self, host):
        env = host.env
        cpu = host.kernel.cpu
        p = host.kernel.spawn_process("p")
        cpu.set_demand(p, 1.0)
        advance(env, 1)
        cpu.remove(p)
        advance(env, 5)
        assert cpu.cpu_time_of(p) == pytest.approx(1.0)
        assert cpu.utilization() == 0.0

    def test_adopt_preserves_declared_demand(self, host):
        env = host.env
        other = Host(env, "n2", local_ip=IPAddr("192.168.0.2"), cores=2)
        p = other.kernel.spawn_process("p")
        other.kernel.cpu.set_demand(p, 0.8)
        other.kernel.cpu.remove(p)
        host.kernel.cpu.adopt(p)
        assert host.kernel.cpu.demand_of(p) == pytest.approx(0.8)

    def test_cpu_share_of(self, host):
        cpu = host.kernel.cpu
        a = host.kernel.spawn_process("a")
        cpu.set_demand(a, 1.0)
        assert cpu.cpu_share_of(a) == pytest.approx(50.0)  # 1 of 2 cores

    def test_cpu_share_under_saturation(self, host):
        cpu = host.kernel.cpu
        a = host.kernel.spawn_process("a")
        b = host.kernel.spawn_process("b")
        cpu.set_demand(a, 2.0)
        cpu.set_demand(b, 2.0)
        assert cpu.cpu_share_of(a) == pytest.approx(50.0)

    def test_negative_demand_rejected(self, host):
        p = host.kernel.spawn_process("p")
        with pytest.raises(ValueError):
            host.kernel.cpu.set_demand(p, -0.1)

    def test_set_demand_unthrottles(self, host):
        cpu = host.kernel.cpu
        p = host.kernel.spawn_process("p")
        cpu.set_demand(p, 1.0)
        cpu.set_throttle(p, 0.5)
        assert cpu.demand_of(p) == 0.5
        # The declared demand is unchanged, but re-declaring it must
        # still lift the throttled entry.
        cpu.set_demand(p, 1.0)
        assert cpu.demand_of(p) == 1.0
        assert cpu.total_demand() == 1.0

    def test_repeated_demand_keeps_accruing(self, host):
        env = host.env
        cpu = host.kernel.cpu
        p = host.kernel.spawn_process("p")
        cpu.set_demand(p, 0.5)
        advance(env, 2)
        cpu.set_demand(p, 0.5)
        advance(env, 2)
        assert cpu.cpu_time_of(p) == pytest.approx(2.0)


_DEMANDS = st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0, 1.7]) | st.floats(0.0, 3.0)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set_demand"), st.integers(0, 3), _DEMANDS),
        st.tuples(st.just("remove"), st.integers(0, 3), st.none()),
        st.tuples(st.just("adopt"), st.integers(0, 3), st.none()),
        st.tuples(st.just("set_throttle"), st.integers(0, 3), st.floats(0.0, 1.0)),
        st.tuples(st.just("advance"), st.none(), st.floats(0.0, 2.0)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_cached_total_is_the_exact_sum(ops):
    """The cached total equals ``sum`` over the demands bit for bit, so
    every load query reads what summing on demand would give."""
    env = Environment()
    host = Host(env, "n1", local_ip=IPAddr("192.168.0.1"), cores=2)
    cpu = host.kernel.cpu
    procs = [host.kernel.spawn_process(f"p{i}") for i in range(4)]
    for op, i, arg in ops:
        if op == "advance":
            advance(env, arg)
        elif op in ("set_demand", "set_throttle"):
            getattr(cpu, op)(procs[i], arg)
        else:
            getattr(cpu, op)(procs[i])
        total = sum(cpu._demand.values())
        assert cpu.total_demand() == total
        assert cpu.utilization() == min(100.0, 100.0 * total / cpu.cores)
        scale = 1.0 if total <= cpu.cores else cpu.cores / total
        for proc in procs:
            share = 100.0 * cpu.demand_of(proc) * scale / cpu.cores
            assert cpu.cpu_share_of(proc) == share
