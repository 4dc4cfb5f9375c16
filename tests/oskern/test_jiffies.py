"""Unit tests for per-node jiffies clocks."""

import pytest

from repro.des import Environment
from repro.oskern import JiffiesClock


class TestJiffiesClock:
    def test_ticks_with_sim_time(self):
        env = Environment()
        clk = JiffiesClock(env)
        assert clk.jiffies == 0
        env.timeout(1.0)
        env.run()
        assert clk.jiffies == 100  # HZ=100

    def test_boot_offset(self):
        env = Environment()
        clk = JiffiesClock(env, boot_offset=12345)
        assert clk.jiffies == 12345

    def test_sub_tick_resolution(self):
        env = Environment()
        clk = JiffiesClock(env)
        env.timeout(0.005)
        env.run()
        assert clk.jiffies == 0  # half a tick has not elapsed

    def test_delta_between_nodes(self):
        env = Environment()
        a = JiffiesClock(env, boot_offset=100)
        b = JiffiesClock(env, boot_offset=5000)
        env.timeout(3.7)
        env.run()
        # At any instant: b.jiffies == a.jiffies + a.delta_to(b).
        assert b.jiffies == a.jiffies + a.delta_to(b)
        assert a.delta_to(b) == -b.delta_to(a)

    def test_delta_requires_same_hz(self):
        env = Environment()
        a = JiffiesClock(env, hz=100)
        b = JiffiesClock(env, hz=1000)
        with pytest.raises(ValueError):
            a.delta_to(b)

    def test_invalid_params(self):
        env = Environment()
        with pytest.raises(ValueError):
            JiffiesClock(env, hz=0)
        with pytest.raises(ValueError):
            JiffiesClock(env, boot_offset=-5)
