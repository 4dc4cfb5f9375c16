"""Zone-server neighbour links: the Section VI-C future work, live.

Zone servers hold direct in-cluster connections to their east
neighbours; the load balancer migrates servers while those links carry
boundary-sync traffic — both endpoints of a link are migratable.
"""

import pytest

from repro.analysis import FIG5_QUICK_CAMPAIGN
from repro.analysis.fig5def import build_fig5_world, run_fig5
from repro.cluster import build_cluster
from repro.core import migrate_process
from repro.dve import ZoneGrid, ZoneServer, ZoneServerConfig
from repro.testing import run_for


@pytest.fixture
def linked_pair():
    cluster = build_cluster(n_nodes=4, with_db=False)
    grid = ZoneGrid(8, 8, 4)
    cfg = ZoneServerConfig(n_client_conns=0, neighbor_sync_interval=0.2)
    west = ZoneServer(cluster, cluster.nodes[0], grid.zone_at(3, 3), config=cfg)
    east = ZoneServer(cluster, cluster.nodes[1], grid.zone_at(4, 3), config=cfg)
    for zs in (west, east):
        zs.listen_neighbors()
        zs.start()
    west.connect_neighbor(east)
    run_for(cluster, 1.0)
    return cluster, west, east


class TestNeighborLinks:
    def test_boundary_sync_flows(self, linked_pair):
        cluster, west, east = linked_pair
        assert west.neighbor_msgs_sent >= 4
        assert east.neighbor_msgs_received >= 4

    def test_west_endpoint_migrates(self, linked_pair):
        cluster, west, east = linked_pair
        report = cluster.env.run(
            until=migrate_process(cluster.nodes[0], cluster.nodes[2], west.proc)
        )
        assert report.success
        assert report.n_local_connections >= 1
        before = east.neighbor_msgs_received
        run_for(cluster, 2.0)
        assert east.neighbor_msgs_received > before + 5

    def test_both_endpoints_migrate(self, linked_pair):
        cluster, west, east = linked_pair
        r1 = cluster.env.run(
            until=migrate_process(cluster.nodes[0], cluster.nodes[2], west.proc)
        )
        r2 = cluster.env.run(
            until=migrate_process(cluster.nodes[1], cluster.nodes[3], east.proc)
        )
        assert r1.success and r2.success
        before = east.neighbor_msgs_received
        run_for(cluster, 2.0)
        assert east.neighbor_msgs_received > before + 5
        for host in cluster.nodes:
            assert host.stack.ip.checksum_drops == 0

    def test_connect_to_non_listening_rejected(self, linked_pair):
        cluster, west, east = linked_pair
        other = ZoneServer(
            cluster, cluster.nodes[2], ZoneGrid(8, 8, 4).zone_at(5, 3),
            config=ZoneServerConfig(n_client_conns=0),
        )
        with pytest.raises(RuntimeError, match="not listening"):
            west.connect_neighbor(other)


class TestIdleWithoutLinks:
    def test_unlinked_server_schedules_no_boundary_sync(self):
        """Without a neighbour link the sync interval changes nothing:
        a started zone server wakes up no boundary-sync timer."""

        def events_after_one_second(interval):
            cluster = build_cluster(n_nodes=2, with_db=False)
            cfg = ZoneServerConfig(n_client_conns=0, neighbor_sync_interval=interval)
            zone = ZoneGrid(8, 8, 4).zone_at(3, 3)
            zs = ZoneServer(cluster, cluster.nodes[0], zone, config=cfg)
            zs.start()
            run_for(cluster, 1.0)
            assert zs.neighbor_msgs_sent == 0
            return cluster.env._eid

        assert events_after_one_second(0.01) == events_after_one_second(2.0)


class TestScenarioWithNeighbors:
    def test_reduced_lb_scenario_with_links(self):
        campaign = FIG5_QUICK_CAMPAIGN
        world = build_fig5_world(campaign, load_balancing=True)
        # Wire every zone server to its east neighbour on the built world.
        servers = world.zone_servers
        for zs in servers:
            zs.listen_neighbors()
        for zs in servers:
            if zs.zone.col + 1 < world.grid.cols:
                zs.connect_neighbor(servers[zs.zone.zone_id + 1])
        result = run_fig5(world, campaign)
        # 90 east links on a 10x10 grid, all carrying traffic.
        linked = [zs for zs in servers if zs.neighbor_sock is not None]
        assert len(linked) == 90
        total_rx = sum(zs.neighbor_msgs_received for zs in servers)
        assert total_rx > 90 * 100  # every 2 s for 240 s per link
        # Migrations happened while links were live, and nothing broke.
        assert len(result.migrations) >= 1
        for host in world.cluster.all_hosts():
            assert host.stack.ip.checksum_drops == 0
