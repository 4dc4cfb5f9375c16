"""The conductor under faults: detection verdicts steer the balance loop."""

import pytest

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig, migrate_process
from repro.faults import FaultPlan, MigdAbort, NodeCrash, install_faults
from repro.middleware import (
    ConductorConfig,
    DEAD,
    PolicyConfig,
    install_conductor,
)
from repro.testing import run_for


def build_balanced_cluster(n_nodes=3, **cond_kw):
    cluster = build_cluster(n_nodes=n_nodes, with_db=False)
    scan = [n.local_ip for n in cluster.nodes]
    config = ConductorConfig(
        policies=PolicyConfig(imbalance_threshold=12),
        check_interval=1.0,
        calm_down=3.0,
        migration=LiveMigrationConfig(initial_round_timeout=0.08, rpc_timeout=1.0),
        **cond_kw,
    )
    conductors = [
        install_conductor(n, scan, cluster.node_by_local_ip, config)
        for n in cluster.nodes
    ]
    return cluster, conductors


def spawn_workers(cluster, node, conductor, n, demand, npages=16):
    procs = []
    for i in range(n):
        proc = node.kernel.spawn_process(f"worker{i}")
        proc.address_space.mmap(npages)
        node.kernel.cpu.set_demand(proc, demand)
        conductor.manage(proc)
        procs.append(proc)
    return procs


class TestDetectorIntegration:
    def test_crashed_peer_goes_dead_on_every_conductor(self):
        cluster, conductors = build_balanced_cluster(
            suspect_timeout=1.0, dead_timeout=2.0
        )
        tracer = cluster.env.enable_tracing()
        victim = cluster.nodes[1]
        install_faults(cluster, FaultPlan([NodeCrash(2.0, "node2")]))
        run_for(cluster, 8.0)
        for cond in (conductors[0], conductors[2]):
            assert cond.detector.state(victim.local_ip) == DEAD
            assert cond.detector.deaths_total >= 1
        names = [e.name for e in tracer.events]
        assert "recover.suspect" in names
        assert "recover.dead" in names

    def test_balance_loop_skips_dead_candidate(self):
        """node2 (the obvious receiver) crashes; the conductor's
        detector vetoes it and the process lands on node3."""
        # Long peer-stale window: node2's last heartbeat keeps it in the
        # candidate ranking, so only the detector's verdict excludes it.
        cluster, conductors = build_balanced_cluster(
            suspect_timeout=1.8, dead_timeout=3.0, peer_stale_timeout=60.0
        )
        tracer = cluster.env.enable_tracing()
        hot = cluster.nodes[0]
        procs = spawn_workers(cluster, hot, conductors[0], 4, demand=0.9)
        # Crash before the load monitor warms up: no migration can land
        # on node2 first.
        install_faults(cluster, FaultPlan([NodeCrash(0.5, "node2")]))
        run_for(cluster, 25.0)
        moved = [p for p in procs if p.kernel is not hot.kernel]
        assert moved, "balance loop never shed load"
        for p in moved:
            assert p.kernel is cluster.nodes[2].kernel
        names = [e.name for e in tracer.events]
        assert "recover.skip" in names

    def test_heartbeat_jitter_is_deterministic(self):
        """The jittered heartbeat loop stays replayable: same seed,
        same heartbeat arrival times."""

        def heartbeat_times():
            cluster, conductors = build_balanced_cluster()
            tracer = cluster.env.enable_tracing()
            run_for(cluster, 5.0)
            return [
                e.time for e in tracer.events if e.name == "cond.heartbeat"
            ]

        first, second = heartbeat_times(), heartbeat_times()
        # Jitter applied: periods are not all exactly the configured 1.0.
        assert first == second


class TestPostcopyAbortHandoff:
    @staticmethod
    def build_world():
        """worker0's post-copy to node2 fails after the thaw (t~1.1):
        it runs on node2 with its 16 pages absent and no fetcher."""
        cluster = build_cluster(n_nodes=3, with_db=False)
        scan = [n.local_ip for n in cluster.nodes]
        config = ConductorConfig(
            policies=PolicyConfig(imbalance_threshold=12),
            check_interval=1.0,
            calm_down=3.0,
            migration=LiveMigrationConfig(mode="postcopy", rpc_timeout=1.0),
        )
        conductors = [
            install_conductor(n, scan, cluster.node_by_local_ip, config)
            for n in cluster.nodes
        ]
        tracer = cluster.env.enable_tracing()
        worker0, *_ = spawn_workers(cluster, cluster.nodes[0], conductors[0], 4, demand=0.9)
        install_faults(cluster, FaultPlan([MigdAbort(0.0, "*", phase="postcopy")]))
        return cluster, conductors, tracer, worker0

    def test_failed_postcopy_hands_the_process_to_the_destination(self):
        """A post-copy attempt that fails after execution moved leaves the
        process on the destination: the conductor stops walking the
        candidates and management follows the process."""
        cluster, conductors, tracer, worker0 = self.build_world()
        # The first balance round (t~1.1) launches worker0 at node2 and
        # the post-copy abort fires; the source's calm-down holds the
        # next launch past t=3.
        run_for(cluster, 3.0)
        managers = [
            cond.host.name
            for cond in conductors
            if any(p.name == "worker0" for p in cond.managed)
        ]
        assert managers == ["node2"]
        assert worker0.kernel is cluster.nodes[1].kernel
        giveups = [e for e in tracer.events if e.name == "recover.giveup"]
        assert [e.fields["attempts"] for e in giveups] == [1]
        assert [e.name for e in tracer.events].count("cond.decision") == 1
        # Balancing goes on without a crash, re-migrating post-copied
        # processes (whose pages arrived clean) along the way.
        run_for(cluster, 27.0)
        assert sum(c.migrations_received for c in conductors) >= 3

    def test_stranded_process_is_never_migrated_again(self):
        """The pages the failed post-copy never fetched exist nowhere, so
        worker0 must stay put: a later migration would ship them as
        version-0 pages and lose them silently."""
        cluster, conductors, tracer, worker0 = self.build_world()
        run_for(cluster, 30.0)
        assert worker0.kernel is cluster.nodes[1].kernel
        assert worker0.address_space.absent_count == 16
        assert worker0.stranded_pages == 16
        launches = [
            e for e in tracer.events if e.name == "mig.start" and e.fields["pid"] == worker0.pid
        ]
        assert len(launches) == 1
        # Balancing goes on around it.
        assert sum(c.migrations_received for c in conductors) >= 3
        with pytest.raises(ValueError, match="16 absent pages"):
            migrate_process(cluster.nodes[1], cluster.nodes[2], worker0)
