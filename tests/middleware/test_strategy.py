"""Unit tests for the decision strategies (pure: model in, plan out)."""

import math
from dataclasses import replace

import pytest

from repro.des import Environment
from repro.middleware import (
    STRATEGIES,
    BalanceToAverageStrategy,
    ClusterModel,
    ConductorConfig,
    ConsolidateStrategy,
    CycleAwareStrategy,
    LoadInfo,
    MigrationAction,
    NodeView,
    PaperThresholdStrategy,
    PolicyConfig,
    make_strategy,
    register_strategy,
)
from repro.net import IPAddr


class FakeProc:
    """Strategies only carry processes through; pid/name suffice."""

    def __init__(self, pid, name=None):
        self.pid = pid
        self.name = name or f"proc{pid}"


def peer(name, octet, cpu, nprocs=1, ts=0.0):
    return LoadInfo(
        node_name=name,
        local_ip=IPAddr(f"192.168.0.{octet}"),
        cpu_percent=cpu,
        nprocs=nprocs,
        timestamp=ts,
    )


def model_of(
    local_cpu,
    peers,
    shares,
    *,
    config=None,
    now=100.0,
    sequential=True,
    max_actions=1,
    history=None,
):
    config = config or PolicyConfig()
    infos = list(peers)
    average = (sum(p.cpu_percent for p in infos) + local_cpu) / (len(infos) + 1)
    views = [
        NodeView(
            name=p.node_name,
            ip=p.local_ip,
            cpu_percent=p.cpu_percent,
            nprocs=p.nprocs,
            heartbeat_age=now - p.timestamp,
        )
        for p in infos
    ]
    return ClusterModel(
        now=now,
        local=NodeView(
            name="node1",
            ip=IPAddr("192.168.0.1"),
            cpu_percent=local_cpu,
            nprocs=len(shares),
            heartbeat_age=0.0,
            is_self=True,
        ),
        peers=views,
        stale_peers=[],
        peer_infos=infos,
        average=average,
        shares=list(shares),
        max_actions=max_actions,
        sequential=sequential,
        config=config,
        history=history or {},
    )


class TestPaperThresholdStrategy:
    def test_below_threshold_plans_nothing(self):
        strat = PaperThresholdStrategy(PolicyConfig())
        model = model_of(30.0, [peer("node2", 2, 28.0, ts=99.0)], [(FakeProc(1), 15.0)])
        assert not strat.plan(model)

    def test_overload_plans_matched_process_and_receiver(self):
        strat = PaperThresholdStrategy(PolicyConfig())
        procs = [(FakeProc(1, "small"), 10.0), (FakeProc(2, "match"), 40.0)]
        model = model_of(
            80.0,
            [peer("node2", 2, 10.0, ts=99.0), peer("node3", 3, 40.0, ts=99.0)],
            procs,
        )
        plan = strat.plan(model)
        assert len(plan) == 1
        action = plan.actions[0]
        # Excess over the average (~36.7) is matched by the 40% process,
        # and the receiver farthest below the average ranks first.
        assert action.proc.name == "match"
        assert action.destination.node_name == "node2"
        assert action.score == pytest.approx(model.overload)

    def test_empty_cluster_plans_nothing(self):
        strat = PaperThresholdStrategy(PolicyConfig())
        model = model_of(95.0, [], [(FakeProc(1), 50.0)])
        # Alone, local == average: the critical threshold trips, but the
        # target difference is zero, so no process matches it (and there
        # would be no receiver anyway) — the plan must come back empty
        # rather than crash.
        assert not strat.plan(model)

    def test_batch_mode_caps_actions_at_admission_headroom(self):
        strat = PaperThresholdStrategy(PolicyConfig())
        procs = [(FakeProc(i), 20.0) for i in range(1, 5)]
        model = model_of(
            80.0,
            [peer("node2", 2, 5.0, ts=99.0), peer("node3", 3, 5.0, ts=99.0)],
            procs,
            sequential=False,
            max_actions=2,
        )
        plan = strat.plan(model)
        assert len(plan) == 2
        assert len({a.proc.pid for a in plan.actions}) == 2


class TestBalanceToAverageStrategy:
    def test_moves_minimum_set_into_band(self):
        strat = BalanceToAverageStrategy(PolicyConfig(), band=5.0)
        procs = [(FakeProc(1), 25.0), (FakeProc(2), 25.0), (FakeProc(3), 25.0)]
        model = model_of(
            90.0,
            [peer("node2", 2, 15.0, ts=99.0), peer("node3", 3, 15.0, ts=99.0)],
            procs,
        )
        plan = strat.plan(model)
        # average = 40; excess = 50; two 25% moves land inside the band.
        assert len(plan) == 2
        moved = sum(a.score for a in plan.actions)
        assert model.overload - moved <= strat.band

    def test_actions_spread_over_distinct_receivers(self):
        strat = BalanceToAverageStrategy(PolicyConfig(), band=5.0)
        procs = [(FakeProc(1), 25.0), (FakeProc(2), 25.0)]
        model = model_of(
            90.0,
            [peer("node2", 2, 15.0, ts=99.0), peer("node3", 3, 15.0, ts=99.0)],
            procs,
        )
        plan = strat.plan(model)
        dests = [a.destination.node_name for a in plan.actions]
        assert sorted(dests) == ["node2", "node3"]

    def test_inside_band_plans_nothing(self):
        strat = BalanceToAverageStrategy(PolicyConfig(), band=10.0)
        model = model_of(
            45.0, [peer("node2", 2, 40.0, ts=99.0)], [(FakeProc(1), 20.0)]
        )
        assert not strat.plan(model)

    def test_no_receiver_with_headroom_plans_nothing(self):
        strat = BalanceToAverageStrategy(PolicyConfig(), band=4.0)
        # Peer sits essentially at the average: no receiver margin.
        model = model_of(
            60.0, [peer("node2", 2, 55.0, ts=99.0)], [(FakeProc(1), 20.0)]
        )
        assert not strat.plan(model)

    def test_rejects_nonpositive_band(self):
        with pytest.raises(ValueError):
            BalanceToAverageStrategy(PolicyConfig(), band=0.0)


class TestCycleAwareStrategy:
    def sine_history(self, period=40.0, dt=1.0, n=120, base=50.0, amp=20.0):
        return tuple(
            (i * dt, base + amp * math.sin(2 * math.pi * i * dt / period))
            for i in range(n)
        )

    def test_detects_synthetic_period(self):
        strat = CycleAwareStrategy(PolicyConfig())
        found = strat.detect_cycle(self.sine_history(period=40.0))
        assert found is not None
        period, ac = found
        assert period == pytest.approx(40.0, rel=0.15)
        assert ac >= strat.min_autocorr

    def test_no_cycle_in_flat_series(self):
        strat = CycleAwareStrategy(PolicyConfig())
        flat = tuple((float(i), 50.0) for i in range(100))
        assert strat.detect_cycle(flat) is None

    def test_defers_non_urgent_action_into_trough(self):
        strat = CycleAwareStrategy(PolicyConfig())
        hist = self.sine_history(period=40.0, n=120)
        now = hist[-1][0]
        model = model_of(
            55.0,  # moderate overload: above threshold, not urgent
            [peer("node2", 2, 20.0, ts=now), peer("node3", 3, 20.0, ts=now)],
            [(FakeProc(1), 25.0)],
            now=now,
            history={"node1": hist},
        )
        assert model.overload >= model.config.imbalance_threshold
        plan = strat.plan(model)
        assert len(plan) == 1
        assert plan.actions[0].not_before > now

    def test_urgent_overload_executes_immediately(self):
        strat = CycleAwareStrategy(PolicyConfig())
        hist = self.sine_history(period=40.0, n=120)
        now = hist[-1][0]
        model = model_of(
            95.0,  # critical: bypasses deferral
            [peer("node2", 2, 10.0, ts=now)],
            [(FakeProc(1), 60.0)],
            now=now,
            history={"node1": hist},
        )
        plan = strat.plan(model)
        assert plan.actions
        assert all(a.not_before == 0.0 for a in plan.actions)

    def test_revalidation_drops_evaporated_trigger(self):
        strat = CycleAwareStrategy(PolicyConfig())
        action = MigrationAction(FakeProc(1), "node1")
        calm = model_of(30.0, [peer("node2", 2, 28.0, ts=99.0)], [])
        hot = model_of(80.0, [peer("node2", 2, 10.0, ts=99.0)], [])
        assert not strat.revalidate(action, calm)
        assert strat.revalidate(action, hot)


class TestConsolidateStrategy:
    def plan(self, model, **params):
        return ConsolidateStrategy(PolicyConfig(), **params).plan(model)

    def test_least_loaded_node_drains_onto_most_loaded_peer(self):
        model = model_of(
            10.0,
            [peer("node2", 2, 20.0), peer("node3", 3, 30.0)],
            [(FakeProc(1), 10.0)],
        )
        plan = self.plan(model)
        (action,) = plan.actions
        assert [c.node_name for c in action.candidates] == ["node3", "node2"]
        assert plan.power is None
        (capped,) = self.plan(model, target_cap=35.0).actions
        assert [c.node_name for c in capped.candidates] == ["node2"]

    def test_only_the_least_loaded_node_plans(self):
        model = model_of(25.0, [peer("node2", 2, 20.0)], [(FakeProc(1), 25.0)])
        plan = self.plan(model)
        assert not plan.actions and plan.power is None

    def test_empty_least_loaded_node_sleeps(self):
        model = model_of(0.0, [peer("node2", 2, 20.0)], [])
        assert self.plan(model).power == "sleep"
        # ... but never the last awake node.
        assert self.plan(model_of(0.0, [], [])).power is None

    def test_out_of_power_mode_runs_the_paper_rule(self):
        model = model_of(95.0, [peer("node2", 2, 30.0)], [(FakeProc(1), 30.0)])
        plan = self.plan(model)
        paper = PaperThresholdStrategy(PolicyConfig()).plan(model)
        assert plan.strategy == "consolidate"
        assert plan.actions and plan.actions == paper.actions

    def test_first_sleeping_node_wakes_on_overload(self):
        hot = model_of(0.0, [peer("node2", 2, 90.0)], [])
        asleep = replace(hot, local=replace(hot.local, asleep=True))
        assert self.plan(asleep).power == "wake"
        earlier = NodeView("node0", IPAddr("192.168.0.9"), 0.0, 0, 0.0, asleep=True)
        assert self.plan(replace(asleep, asleep_peers=[earlier])).power is None
        calm = model_of(0.0, [peer("node2", 2, 50.0)], [])
        assert self.plan(replace(calm, local=replace(calm.local, asleep=True))).power is None


class TestRegistry:
    def test_known_strategies_registered(self):
        for name in (
            "paper-threshold",
            "workload-balance-to-average",
            "cycle-aware",
            "consolidate",
        ):
            assert name in STRATEGIES

    def test_make_strategy_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("no-such-strategy", ConductorConfig())

    def test_strategy_params_forwarded(self):
        cfg = ConductorConfig(
            strategy="workload-balance-to-average",
            strategy_params={"band": 7.5},
        )
        strat = make_strategy(cfg.strategy, cfg)
        assert isinstance(strat, BalanceToAverageStrategy)
        assert strat.band == 7.5

    def test_duplicate_registration_rejected(self):
        @register_strategy("test-dupe-probe")
        def _probe(config, rng, **params):
            return PaperThresholdStrategy(config.policies)

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_strategy("test-dupe-probe")(_probe)
        finally:
            del STRATEGIES["test-dupe-probe"]

    def test_conductor_rng_seed_threading(self):
        """Same seed => same per-node stream; different seed => different."""
        import numpy as np
        import zlib

        def stream(seed, ip="192.168.0.1"):
            return np.random.default_rng([seed, zlib.crc32(ip.encode())])

        a = stream(0).random(4)
        b = stream(0).random(4)
        c = stream(1).random(4)
        assert (a == b).all()
        assert (a != c).any()


class TestEnvironmentIndependence:
    def test_strategy_consumes_no_env(self):
        """Strategies are pure: planning does not advance or touch the
        simulation clock."""
        env = Environment()
        strat = BalanceToAverageStrategy(PolicyConfig(), band=4.0)
        model = model_of(
            90.0,
            [peer("node2", 2, 15.0, ts=99.0)],
            [(FakeProc(1), 30.0)],
        )
        before = env.now
        strat.plan(model)
        assert env.now == before
