"""Cluster membership dynamics: "Machines may join and leave at any
time" (Section IV)."""


from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.middleware import ConductorConfig, PolicyConfig, install_conductor
from repro.testing import run_for


def conductor_config(**kw):
    defaults = dict(
        policies=PolicyConfig(imbalance_threshold=10.0),
        check_interval=1.0,
        calm_down=3.0,
        peer_stale_timeout=4.0,
        migration=LiveMigrationConfig(initial_round_timeout=0.08),
    )
    defaults.update(kw)
    return ConductorConfig(**defaults)


class TestJoin:
    def test_late_joiner_discovers_and_is_discovered(self):
        cluster = build_cluster(n_nodes=3, with_db=False)
        scan = [n.local_ip for n in cluster.nodes]
        early = [
            install_conductor(n, scan, cluster.node_by_local_ip, conductor_config())
            for n in cluster.nodes[:2]
        ]
        run_for(cluster, 3.0)
        assert all(len(c.peers) == 1 for c in early)  # only each other

        late = install_conductor(
            cluster.nodes[2], scan, cluster.node_by_local_ip, conductor_config()
        )
        run_for(cluster, 3.0)
        # The newcomer scanned the subnet and found both...
        assert len(late.peers) == 2
        # ... and its probes taught the veterans about it.
        for c in early:
            assert cluster.nodes[2].local_ip in c.peers

    def test_joiner_becomes_migration_target(self):
        cluster = build_cluster(n_nodes=3, with_db=False)
        scan = [n.local_ip for n in cluster.nodes]
        c0 = install_conductor(
            cluster.nodes[0], scan, cluster.node_by_local_ip, conductor_config()
        )
        c1 = install_conductor(
            cluster.nodes[1], scan, cluster.node_by_local_ip, conductor_config()
        )
        # Both existing nodes heavily loaded: no viable receiver yet.
        for i, node in enumerate(cluster.nodes[:2]):
            for k in range(3):
                proc = node.kernel.spawn_process(f"w{i}{k}")
                proc.address_space.mmap(16)
                node.kernel.cpu.set_demand(proc, 0.6)  # 90% per node
                node.daemons["conductor"].manage(proc)
        run_for(cluster, 8.0)
        assert cluster.nodes[2].kernel.processes == {}

        # The empty third node joins: pressure can finally be shed.
        install_conductor(
            cluster.nodes[2], scan, cluster.node_by_local_ip, conductor_config()
        )
        run_for(cluster, 25.0)
        assert len(cluster.nodes[2].kernel.processes) >= 1


class TestGracefulLeave:
    def test_leave_notifies_peers_immediately(self):
        cluster = build_cluster(n_nodes=3, with_db=False)
        scan = [n.local_ip for n in cluster.nodes]
        conductors = [
            install_conductor(n, scan, cluster.node_by_local_ip, conductor_config())
            for n in cluster.nodes
        ]
        run_for(cluster, 3.0)
        conductors[2].leave()
        run_for(cluster, 1.0)  # far less than the stale timeout
        for c in conductors[:2]:
            assert cluster.nodes[2].local_ip not in c.peers
        # The departed conductor initiates nothing further.
        assert not conductors[2].enabled


class TestLeave:
    def test_silent_node_pruned_from_peers(self):
        from repro.middleware import CONDUCTOR_PORT

        cluster = build_cluster(n_nodes=3, with_db=False)
        scan = [n.local_ip for n in cluster.nodes]
        conductors = [
            install_conductor(n, scan, cluster.node_by_local_ip, conductor_config())
            for n in cluster.nodes
        ]
        run_for(cluster, 3.0)
        assert all(len(c.peers) == 2 for c in conductors)

        # node3's conductor dies: heartbeats stop.
        cluster.nodes[2].control.unregister(CONDUCTOR_PORT)
        dead = conductors[2]
        dead.enabled = False
        # Silence its outgoing heartbeats by clearing its peer list.
        dead.peers.clear()
        run_for(cluster, 10.0)
        for c in conductors[:2]:
            assert cluster.nodes[2].local_ip not in c.peers
            assert len(c.peers) == 1

    def test_departed_node_excluded_from_location_policy(self):
        cluster = build_cluster(n_nodes=3, with_db=False)
        scan = [n.local_ip for n in cluster.nodes]
        conductors = [
            install_conductor(n, scan, cluster.node_by_local_ip, conductor_config())
            for n in cluster.nodes
        ]
        run_for(cluster, 3.0)
        # node3 departs.
        from repro.middleware import CONDUCTOR_PORT

        cluster.nodes[2].control.unregister(CONDUCTOR_PORT)
        conductors[2].enabled = False
        conductors[2].peers.clear()
        run_for(cluster, 10.0)
        # node1 overloads; the only candidate must be node2.
        for k in range(4):
            proc = cluster.nodes[0].kernel.spawn_process(f"w{k}")
            proc.address_space.mmap(16)
            cluster.nodes[0].kernel.cpu.set_demand(proc, 0.5)
            conductors[0].manage(proc)
        run_for(cluster, 20.0)
        assert cluster.nodes[2].kernel.processes == {}
        assert len(cluster.nodes[1].kernel.processes) >= 1
