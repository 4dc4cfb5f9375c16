"""Integration tests for the planner: plan execution through admission,
staleness guard, deferred actions, and the edge cases of the decision
plane (single node, all peers stale, zero-action plans, capacity races).
"""

import dataclasses

import pytest

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.middleware import (
    CONDUCTOR_PORT,
    ClusterModel,
    ConductorConfig,
    MigrationAction,
    MigrationPlan,
    NodeView,
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


def eager_model(planner, local, average):
    """The model as an eager build takes it: every field computed now."""
    cond = planner.cond
    now = cond.env.now
    fresh, stale = cond.peers.partition_fresh(now, planner.staleness)

    def view(info):
        return NodeView(
            name=info.node_name,
            ip=info.local_ip,
            cpu_percent=info.cpu_percent,
            nprocs=info.nprocs,
            heartbeat_age=info.age(now),
            health=cond.detector.state(info.local_ip),
            asleep=info.asleep,
        )

    awake = [i for i in fresh if not i.asleep]
    sequential = cond.config.admission_capacity == 1
    return ClusterModel(
        now=now,
        local=NodeView(
            name=cond.host.name,
            ip=cond.host.local_ip,
            cpu_percent=local,
            nprocs=len(cond.managed),
            heartbeat_age=0.0,
            is_self=True,
            asleep=cond.asleep,
        ),
        peers=[view(i) for i in awake],
        stale_peers=[view(i) for i in stale],
        peer_infos=awake,
        average=average,
        shares=cond.monitor.process_shares(
            [p for p in cond.managed if p not in cond._outbound]
        ),
        max_actions=1 if sequential else cond.admission.available,
        sequential=sequential,
        config=cond.config.policies,
        history={k: tuple(v) for k, v in planner._history.items()},
        asleep_peers=[view(i) for i in fresh if i.asleep],
    )


class TwoDeferredStrategy(Strategy):
    """Plans two actions due at the same instant, once.  When the second
    is revalidated and reranked — after the first has migrated — it
    records what the model says next to what the live state said when
    the round began."""

    name = "test-two-deferred"

    def __init__(self, cond):
        self.cond = cond
        self.planned = False
        self.calls = 0
        self.seen = {}

    def plan(self, model):
        plan = MigrationPlan(self.name, model.now)
        if self.planned or model.overload < 5.0:
            return plan
        self.planned = True
        for proc, share in model.shares[:2]:
            plan.actions.append(
                MigrationAction(
                    proc,
                    model.local.name,
                    tuple(model.peer_infos),
                    score=share,
                    not_before=model.now + 2.0,
                )
            )
        return plan

    def revalidate(self, action, model):
        self.calls += 1
        cond = self.cond
        if self.calls == 1:
            # The round has not yielded yet: take the live state, and
            # leave every lazy field of the model unread.
            self.first = action.proc
            self.live = eager_model(cond.planner, model.local.cpu_percent, model.average)
        else:
            self.seen["first_managed"] = self.first in cond.managed
            self.seen["shares"] = model.shares
            self.seen["history"] = model.history
        return True

    def rerank(self, action, model):
        if self.calls > 1:
            self.seen["peers"] = model.peers
        return action.candidates


class TestLazyModel:
    def test_quiet_round_builds_no_peer_views_or_shares(self, monkeypatch):
        import repro.middleware.strategy as strategy_module
        from repro.middleware.monitor import LoadMonitor

        counts = {"builds": 0, "shares": 0, "peer_views": 0}
        build_model = strategy_module.Planner.build_model
        process_shares = LoadMonitor.process_shares

        def counting_build(planner, *args):
            counts["builds"] += 1
            return build_model(planner, *args)

        def counting_shares(monitor, procs):
            counts["shares"] += 1
            return process_shares(monitor, procs)

        class CountingView(NodeView):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if not self.is_self:
                    counts["peer_views"] += 1

        monkeypatch.setattr(strategy_module.Planner, "build_model", counting_build)
        monkeypatch.setattr(LoadMonitor, "process_shares", counting_shares)
        monkeypatch.setattr(strategy_module, "NodeView", CountingView)
        cluster, conductors = build()
        for i, node in enumerate(cluster.nodes):
            conductors[i].manage(spawn_worker(node, 1.0, name=f"zs{i}"))
        run_for(cluster, 15.0)
        # The rounds ran (each samples the local load) and were settled
        # by the strategy's gate before any model was built.
        assert all(len(c.planner._history[c.host.name]) > 10 for c in conductors)
        assert counts["builds"] == 0
        assert counts["shares"] == 0
        assert counts["peer_views"] == 0
        assert all(c.planner.plans_total == 0 for c in conductors)

    def test_lazy_fields_equal_an_eager_build(self):
        cluster, conductors = build(n_nodes=4, plan_staleness=1.5)
        overload_node1(cluster, conductors)
        conductors[2].asleep = True
        run_for(cluster, 3.0)
        # node4's conductor dies: suspect, then stale, before it is pruned.
        cluster.nodes[3].control.unregister(CONDUCTOR_PORT)
        conductors[3].enabled = False
        conductors[3].peers.clear()
        run_for(cluster, 3.5)
        cond = conductors[0]
        local = cond.monitor.current_load()
        average = cond.peers.cluster_average(local)
        lazy = cond.planner.build_model(local, average)
        eager = eager_model(cond.planner, local, average)
        for f in dataclasses.fields(ClusterModel):
            assert getattr(lazy, f.name) == getattr(eager, f.name), f.name
        assert lazy == eager
        # The snapshot is not trivially empty.
        assert [v.name for v in eager.stale_peers] == ["node4"]
        assert eager.stale_peers[0].health == "suspect"
        assert [v.name for v in eager.asleep_peers] == ["node3"]
        assert [v.name for v in eager.peers] == ["node2"]
        assert eager.shares and eager.history["node1"]

    def test_force_computes_every_unread_field(self):
        cluster, conductors = build()
        overload_node1(cluster, conductors)
        run_for(cluster, 3.0)
        cond = conductors[0]
        local = cond.monitor.current_load()
        model = cond.planner.build_model(local, cond.peers.cluster_average(local))
        lazy_fields = {"peers", "stale_peers", "asleep_peers", "shares", "history"}
        assert lazy_fields.isdisjoint(vars(model))
        shares = model.shares
        model.force()
        assert lazy_fields <= vars(model).keys()
        assert model.shares is shares
        # A directly constructed model has nothing to force.
        eager_model(cond.planner, local, model.average).force()

    def test_deferred_round_judges_the_pre_yield_snapshot(self):
        cluster, conductors = build(admission_capacity=2)
        cond = conductors[0]
        strategy = TwoDeferredStrategy(cond)
        cond.planner.strategy = strategy
        procs = overload_node1(cluster, conductors)
        run_for(cluster, 30.0)
        assert strategy.calls >= 2
        seen = strategy.seen
        # The first action migrated (the round yielded into
        # _try_migrate), yet the second still sees the round's snapshot:
        # the migrated process with its share, the round's history and
        # peer views.
        assert not seen["first_managed"]
        assert strategy.first in procs
        assert seen["shares"] == strategy.live.shares
        assert strategy.first in [p for p, _ in seen["shares"]]
        assert seen["history"] == strategy.live.history
        assert seen["peers"] == strategy.live.peers
