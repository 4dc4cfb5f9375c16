"""Integration tests for the planner: plan execution through admission,
staleness guard, deferred actions, and the edge cases of the decision
plane (single node, all peers stale, zero-action plans, capacity races).
"""

import pytest

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.middleware import (
    ConductorConfig,
    MigrationAction,
    MigrationPlan,
    PolicyConfig,
    Strategy,
    install_conductor,
)
from repro.testing import run_for


def build(n_nodes=3, strategy="paper-threshold", trace=False, **cfg_kw):
    cluster = build_cluster(n_nodes=n_nodes, with_db=False)
    if trace:
        cluster.env.enable_tracing()
    config = ConductorConfig(
        policies=PolicyConfig(imbalance_threshold=12),
        check_interval=1.0,
        calm_down=3.0,
        migration=LiveMigrationConfig(initial_round_timeout=0.08),
        strategy=strategy,
        **cfg_kw,
    )
    conductors = cluster.install_balancers(config)
    return cluster, conductors


def spawn_worker(node, demand, name="worker"):
    proc = node.kernel.spawn_process(name)
    proc.address_space.mmap(16)
    node.kernel.cpu.set_demand(proc, demand)
    return proc


def overload_node1(cluster, conductors, n=4, demand=0.9):
    hot = cluster.nodes[0]
    procs = [spawn_worker(hot, demand, name=f"zs{i}") for i in range(n)]
    for p in procs:
        conductors[0].manage(p)
    return procs


class TestPlannerWiring:
    def test_default_strategy_balances_like_before(self):
        cluster, conductors = build()
        procs = overload_node1(cluster, conductors)
        run_for(cluster, 30.0)
        assert conductors[0].migrations_initiated >= 1
        assert conductors[0].planner.executed_total >= 1
        assert any(p.kernel is not cluster.nodes[0].kernel for p in procs)

    def test_single_node_cluster_is_quiet(self):
        cluster, conductors = build(n_nodes=1)
        overload_node1(cluster, conductors)
        run_for(cluster, 10.0)
        # No peers: the planner never consults the strategy.
        assert conductors[0].planner.plans_total == 0
        assert conductors[0].migrations_initiated == 0

    def test_zero_action_plans_cost_nothing(self):
        cluster, conductors = build()
        # Balanced: every round the strategy returns an empty plan.
        for i, node in enumerate(cluster.nodes):
            conductors[i].manage(spawn_worker(node, 1.0, name=f"zs{i}"))
        run_for(cluster, 15.0)
        for cond in conductors:
            assert cond.planner.plans_total == 0
            assert cond.planner.actions_total == 0
            assert cond.migrations_initiated == 0

    def test_workload_balance_strategy_migrates(self):
        cluster, conductors = build(
            strategy="workload-balance-to-average",
            strategy_params={"band": 5.0},
        )
        # Six 15%-share workers: fine-grained enough that moving a
        # minimum set can land every node near the 30% cluster mean.
        overload_node1(cluster, conductors, n=6, demand=0.3)
        run_for(cluster, 30.0)
        assert conductors[0].planner.executed_total >= 1
        loads = [c.monitor.current_load() for c in conductors]
        assert max(loads) - min(loads) < 40.0

    def test_planner_metrics_registered(self):
        cluster = build_cluster(n_nodes=2, with_db=False)
        cluster.env.enable_metrics()  # before install: gauges register
        conds = cluster.install_balancers(ConductorConfig())
        snap = cluster.env.metrics.snapshot()
        for suffix in ("plans", "executed", "vetoed", "deferred", "dropped"):
            assert f"planner.node1.{suffix}" in snap
        assert conds[0].planner is not None


class TestStalenessGuard:
    def test_all_peers_stale_vetoes_actions(self):
        # A staleness window so tight every heartbeat is already too old
        # by decision time: peers stay *known* (the round still runs) but
        # none may be ranked as a candidate.
        cluster, conductors = build(plan_staleness=1e-6)
        overload_node1(cluster, conductors)
        run_for(cluster, 15.0)
        planner = conductors[0].planner
        assert planner.stale_skipped_total > 0
        assert conductors[0].migrations_initiated == 0
        # The paper strategy still picks a process; with zero rankable
        # receivers its action reserves and aborts — a veto, not a crash.
        assert planner.vetoed_total >= 1

    def test_default_window_reuses_peer_stale_timeout(self):
        cluster, conductors = build(peer_stale_timeout=42.0)
        assert conductors[0].planner.staleness == 42.0
        cluster, conductors = build(plan_staleness=2.0)
        assert conductors[0].planner.staleness == 2.0

    def test_fresh_peers_still_ranked(self):
        cluster, conductors = build(plan_staleness=4.0)
        overload_node1(cluster, conductors)
        run_for(cluster, 20.0)
        assert conductors[0].migrations_initiated >= 1


class DeferredStrategy(Strategy):
    """Emits every managed process with a fixed future not_before."""

    name = "test-deferred"

    def __init__(self, delay, revalidate_ok=True):
        self.delay = delay
        self.revalidate_ok = revalidate_ok
        self.planned = 0

    def plan(self, model):
        plan = MigrationPlan(self.name, model.now)
        if model.overload < 5.0:
            return plan
        for proc, share in model.shares:
            plan.actions.append(
                MigrationAction(
                    proc,
                    model.local.name,
                    tuple(model.peer_infos),
                    score=share,
                    not_before=model.now + self.delay,
                )
            )
            self.planned += 1
            break
        return plan

    def revalidate(self, action, model):
        return self.revalidate_ok


class TestDeferredActions:
    def install(self, delay, revalidate_ok=True):
        cluster, conductors = build(trace=True)
        planner = conductors[0].planner
        planner.strategy = DeferredStrategy(delay, revalidate_ok)
        return cluster, conductors, planner

    def test_deferred_action_executes_when_due(self):
        cluster, conductors, planner = self.install(delay=3.0)
        overload_node1(cluster, conductors)
        run_for(cluster, 6.0)
        assert planner.deferred_total >= 1
        assert planner.executed_total + planner.retried_total >= 1
        names = [ev.name for ev in cluster.env.tracer.events]
        assert "plan.defer" in names
        assert "plan.outcome" in names

    def test_parked_action_not_executed_early(self):
        cluster, conductors, planner = self.install(delay=1000.0)
        overload_node1(cluster, conductors)
        run_for(cluster, 10.0)
        assert planner.deferred_total >= 1
        assert planner.executed_total == 0
        assert len(planner.pending) >= 1
        assert conductors[0].migrations_initiated == 0

    def test_revalidation_failure_drops_action(self):
        cluster, conductors, planner = self.install(
            delay=2.0, revalidate_ok=False
        )
        overload_node1(cluster, conductors)
        run_for(cluster, 8.0)
        assert planner.deferred_total >= 1
        assert planner.dropped_total >= 1
        assert planner.executed_total == 0
        drops = [
            ev
            for ev in cluster.env.tracer.events
            if ev.name == "plan.drop"
        ]
        assert any(ev.fields["reason"] == "revalidated" for ev in drops)


class MultiActionStrategy(Strategy):
    """Always plans every managed process at once — more actions than
    the admission capacity can take, to force the race."""

    name = "test-multi"

    def plan(self, model):
        plan = MigrationPlan(self.name, model.now)
        if model.overload < 5.0:
            return plan
        for proc, share in model.shares:
            plan.actions.append(
                MigrationAction(
                    proc, model.local.name, tuple(model.peer_infos), score=share
                )
            )
        return plan


class TestAdmissionRace:
    def test_sequential_plan_racing_capacity_drops_tail(self):
        cluster, conductors = build(trace=True)
        planner = conductors[0].planner
        planner.strategy = MultiActionStrategy()
        overload_node1(cluster, conductors)
        run_for(cluster, 12.0)
        # First action executes and its calm-down exhausts the capacity;
        # the rest of the plan is dropped, not stalled or crashed.
        assert planner.executed_total >= 1
        assert planner.dropped_total >= 1
        drops = [
            ev
            for ev in cluster.env.tracer.events
            if ev.name == "plan.drop"
        ]
        assert any(ev.fields["reason"] == "admission" for ev in drops)

    def test_batch_mode_overlapping_sessions_still_work(self):
        cluster, conductors = build(admission_capacity=2)
        overload_node1(cluster, conductors, n=6)
        run_for(cluster, 30.0)
        assert conductors[0].migrations_initiated >= 2
