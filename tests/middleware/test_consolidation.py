"""Tests for power management by consolidation (the ``consolidate``
strategy)."""

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.middleware import CONDUCTOR_PORT, ConductorConfig, install_conductor
from repro.obs import build_causal_graph
from repro.testing import run_for


def build(n_nodes=3, strategy="consolidate", trace=False, metrics=False, **params):
    cluster = build_cluster(n_nodes=n_nodes, with_db=False)
    if trace:
        cluster.env.enable_tracing()
    if metrics:
        cluster.env.enable_metrics()
    scan = [n.local_ip for n in cluster.nodes]
    for node in cluster.nodes:
        install_conductor(
            node, scan, cluster.node_by_local_ip,
            ConductorConfig(
                migration=LiveMigrationConfig(initial_round_timeout=0.08),
                strategy=strategy,
                strategy_params=params,
            ),
        )

    def spawn(node, demand, name):
        proc = node.kernel.spawn_process(name)
        proc.address_space.mmap(16)
        node.kernel.cpu.set_demand(proc, demand)
        node.daemons["conductor"].manage(proc)
        return proc

    return cluster, spawn


def conductors(cluster):
    return [n.daemons["conductor"] for n in cluster.nodes]


def sleeping(cluster):
    return {c.host.name for c in conductors(cluster) if c.asleep}


def migrations(cluster):
    return [e for c in conductors(cluster) for e in c.events]


class TestConsolidator:
    def test_idle_node_drained_and_slept(self):
        cluster, spawn = build()
        # Light load everywhere: node3 has one small process.
        spawn(cluster.nodes[0], 0.4, "w0")
        spawn(cluster.nodes[1], 0.4, "w1")
        spawn(cluster.nodes[2], 0.2, "w2")
        run_for(cluster, 30.0)
        assert len(sleeping(cluster)) >= 1
        assert sum(c.planner.sleeps_total for c in conductors(cluster)) >= 1
        # Every process still running somewhere awake.
        for node in cluster.nodes:
            if node.name in sleeping(cluster):
                assert not [
                    p for p in node.kernel.processes.values()
                    if p.name.startswith("w")
                ]

    def test_no_consolidation_when_busy(self):
        cluster, spawn = build(low_watermark=30.0)
        for i, node in enumerate(cluster.nodes):
            spawn(node, 1.6, f"w{i}")  # 80% each
        run_for(cluster, 20.0)
        assert not sleeping(cluster)
        assert not migrations(cluster)

    def test_target_cap_respected(self):
        cluster, spawn = build(target_cap=70.0)
        spawn(cluster.nodes[0], 1.2, "w0")  # 60%
        spawn(cluster.nodes[1], 1.2, "w1")  # 60%
        spawn(cluster.nodes[2], 0.6, "w2")  # 30% -> drain candidate (30% add)
        run_for(cluster, 30.0)
        # Moving w2 (30%) onto a 60% node would exceed the 70% cap, so
        # nothing may be drained.
        assert not sleeping(cluster)
        for node in cluster.nodes:
            assert node.kernel.cpu.utilization() <= 70.0 + 1e-6

    def test_wake_on_load_rise(self):
        cluster, spawn = build(wake_watermark=60.0)
        spawn(cluster.nodes[0], 0.3, "w0")
        spawn(cluster.nodes[1], 0.3, "w1")
        spawn(cluster.nodes[2], 0.1, "w2")
        run_for(cluster, 30.0)
        assert len(sleeping(cluster)) >= 1
        # Load spikes on the awake nodes.
        for node in cluster.nodes:
            for p in node.kernel.processes.values():
                if p.name.startswith("w"):
                    node.kernel.cpu.set_demand(p, 1.8)
        run_for(cluster, 10.0)
        assert not sleeping(cluster)
        assert sum(c.planner.wakes_total for c in conductors(cluster)) >= 1

    def test_migrations_are_live(self):
        cluster, spawn = build()
        spawn(cluster.nodes[0], 0.4, "w0")
        spawn(cluster.nodes[1], 0.4, "w1")
        spawn(cluster.nodes[2], 0.2, "w2")
        run_for(cluster, 30.0)
        migrates = migrations(cluster)
        assert migrates
        assert all(e.success and e.freeze_time is not None for e in migrates)

    def test_disabled_consolidator_is_inert(self):
        """Without the ``consolidate`` strategy no node ever sleeps."""
        cluster, spawn = build(strategy="paper-threshold")
        spawn(cluster.nodes[2], 0.1, "w2")
        run_for(cluster, 20.0)
        assert not sleeping(cluster)
        assert not migrations(cluster)
        assert all(c.planner.sleeps_total == 0 for c in conductors(cluster))

    def test_conductor_slot_shared_with_balancer(self):
        """While another actor holds the drain candidate's admission,
        consolidation backs off; it proceeds once the admission frees."""
        cluster, spawn = build()
        # A worker on every node so no node is trivially empty; node3
        # is the clear drain candidate.
        spawn(cluster.nodes[0], 0.4, "w0")
        spawn(cluster.nodes[1], 0.4, "w1")
        spawn(cluster.nodes[2], 0.1, "w2")
        cluster.nodes[2].daemons["conductor"].admission.try_reserve("balancer")
        run_for(cluster, 15.0)
        assert not sleeping(cluster)
        cluster.nodes[2].daemons["conductor"].admission.release("balancer", False)
        run_for(cluster, 15.0)
        assert "node3" in sleeping(cluster)

    def test_drain_runs_through_the_planner(self):
        """A consolidation migration takes the conductor's one path: it
        is counted as executed and chains plan.action -> cond.decision
        -> mig.start in the causal trace."""
        cluster, spawn = build(trace=True, metrics=True)
        spawn(cluster.nodes[0], 0.4, "w0")
        spawn(cluster.nodes[1], 0.4, "w1")
        spawn(cluster.nodes[2], 0.2, "w2")
        run_for(cluster, 30.0)
        snap = cluster.env.metrics.snapshot()
        assert snap["planner.node3.executed"] >= 1
        graph = build_causal_graph(cluster.env.tracer.events)
        starts = [n for n in graph.nodes.values() if n.name == "mig.start"]
        assert starts
        for start in starts:
            chain = graph.chain(start.cid)
            assert [n.name for n in chain] == [
                "plan.emitted", "plan.action", "cond.decision", "mig.start",
            ]
            assert chain[1].event.fields["strategy"] == "consolidate"

    def test_sleeping_node_refuses_reserve(self):
        cluster, spawn = build()
        spawn(cluster.nodes[0], 0.4, "w0")
        spawn(cluster.nodes[1], 0.4, "w1")
        spawn(cluster.nodes[2], 0.2, "w2")
        run_for(cluster, 30.0)
        asleep = next(c for c in conductors(cluster) if c.asleep)
        awake = next(c for c in conductors(cluster) if not c.asleep)
        assert asleep.admission.available > 0
        replies = []

        def ask():
            reply = yield awake.host.control.rpc(
                asleep.host.local_ip,
                CONDUCTOR_PORT,
                {"op": "reserve", "sender": awake.host.name},
            )
            replies.append(reply)

        cluster.env.process(ask())
        run_for(cluster, 0.5)
        assert replies and replies[0]["ok"] is False
        assert replies[0]["info"].asleep
        assert asleep.reserve_rejections >= 1
