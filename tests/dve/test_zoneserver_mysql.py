"""Tests for zone servers and the MySQL-like DB server."""

import pytest

from repro.cluster import build_cluster
from repro.dve import MySQLServer, ZoneGrid, ZoneServer, ZoneServerConfig
from repro.testing import run_for


@pytest.fixture
def setup():
    cluster = build_cluster(n_nodes=2, with_db=True)
    db = MySQLServer(cluster.db)
    grid = ZoneGrid(10, 10, 2)
    return cluster, db, grid


def make_zs(cluster, db, grid, zone_id=0, **cfg_kw):
    cfg = ZoneServerConfig(**cfg_kw) if cfg_kw else ZoneServerConfig()
    return ZoneServer(cluster, cluster.nodes[0], grid.zones[zone_id], db=db, config=cfg)


class TestMySQLServer:
    def test_accepts_sessions_and_serves(self, setup):
        cluster, db, grid = setup
        zs = make_zs(cluster, db, grid)
        zs.connect_db()
        assert db.n_sessions == 1
        zs.start()
        run_for(cluster, 12.0)
        assert db.queries_served >= 2
        assert zs.db_replies >= 2

    def test_multiple_sessions(self, setup):
        cluster, db, grid = setup
        servers = [make_zs(cluster, db, grid, zone_id=i) for i in range(3)]
        for zs in servers:
            zs.connect_db()
        assert db.n_sessions == 3

    def test_session_close_removes(self, setup):
        cluster, db, grid = setup
        zs = make_zs(cluster, db, grid)
        zs.connect_db()
        zs.db_session.close()
        run_for(cluster, 1.0)
        assert db.n_sessions == 0


class TestZoneServer:
    def test_population_drives_cpu(self, setup):
        cluster, db, grid = setup
        zs = make_zs(cluster, db, grid)
        zs.set_population(100)
        cfg = zs.config
        assert zs.cpu_demand == pytest.approx(cfg.cpu_base + 100 * cfg.cpu_per_client)
        zs.set_population(0)
        assert zs.cpu_demand == pytest.approx(cfg.cpu_base)
        with pytest.raises(ValueError):
            zs.set_population(-1)

    def test_client_connections(self, setup):
        cluster, db, grid = setup
        zs = make_zs(cluster, db, grid, n_client_conns=3)
        zs.connect_clients()
        assert len(zs.client_conns) == 3
        for conn in zs.client_conns:
            assert conn.state == "ESTABLISHED"

    def test_packet_mode_sends_updates(self, setup):
        cluster, db, grid = setup
        zs = make_zs(cluster, db, grid, n_client_conns=2, traffic_mode="packet")
        zs.connect_clients()
        zs.start()
        run_for(cluster, 1.0)
        # 20 Hz to each of 2 connections for ~1s.
        assert 30 <= zs.updates_sent <= 50

    def test_fluid_mode_no_update_traffic(self, setup):
        cluster, db, grid = setup
        zs = make_zs(cluster, db, grid, n_client_conns=2, traffic_mode="fluid")
        zs.connect_clients()
        zs.start()
        run_for(cluster, 2.0)
        assert zs.updates_sent == 0
        # But memory is still dirtied.
        assert zs.proc.address_space.dirty_count() > 0

    def test_bad_traffic_mode_rejected(self, setup):
        cluster, db, grid = setup
        with pytest.raises(ValueError):
            make_zs(cluster, db, grid, traffic_mode="quantum")

    def test_double_start_rejected(self, setup):
        cluster, db, grid = setup
        zs = make_zs(cluster, db, grid)
        zs.start()
        with pytest.raises(RuntimeError):
            zs.start()

    def test_current_node_follows_migration(self, setup):
        from repro.core import migrate_process

        cluster, db, grid = setup
        zs = make_zs(cluster, db, grid, n_client_conns=2)
        zs.connect_clients()
        zs.connect_db()
        zs.start()
        zs.set_population(50)
        run_for(cluster, 1.0)
        assert zs.current_node() is cluster.nodes[0]
        ev = migrate_process(cluster.nodes[0], cluster.nodes[1], zs.proc)
        report = cluster.env.run(until=ev)
        assert report.success
        assert zs.current_node() is cluster.nodes[1]
        # DB session still works after migration.
        before = zs.db_replies
        run_for(cluster, 12.0)
        assert zs.db_replies > before

    def test_demand_set_on_new_kernel_after_migration(self, setup):
        from repro.core import migrate_process

        cluster, db, grid = setup
        zs = make_zs(cluster, db, grid)
        zs.start()
        zs.set_population(100)
        ev = migrate_process(cluster.nodes[0], cluster.nodes[1], zs.proc)
        cluster.env.run(until=ev)
        zs.set_population(200)
        k2 = cluster.nodes[1].kernel
        assert k2.cpu.demand_of(zs.proc) == pytest.approx(zs.cpu_demand)
        assert cluster.nodes[0].kernel.cpu.demand_of(zs.proc) == 0.0


def quick_fig5(duration):
    """The quick Fig. 5 campaign, cut to ``duration`` seconds."""
    from dataclasses import replace

    from repro.analysis import FIG5_QUICK_CAMPAIGN

    return FIG5_QUICK_CAMPAIGN.with_overrides(
        scenario=replace(FIG5_QUICK_CAMPAIGN.scenario, duration=duration)
    )


class TestDVEScenarioSmall:
    def test_reduced_scenario_end_to_end(self):
        from repro.analysis.fig5def import build_fig5_world, run_fig5

        campaign = quick_fig5(120.0)
        world = build_fig5_world(campaign, load_balancing=True)
        res = run_fig5(world, campaign)
        assert set(res.cpu.names()) == {f"node{i}" for i in range(1, 6)}
        assert sum(res.final_proc_counts().values()) == 100
        assert sum(zs.population for zs in world.zone_servers) == 4000
        # Every zone server carries its client connection and DB session.
        assert all(len(zs.client_conns) == 1 for zs in world.zone_servers)
        assert all(zs.db_session is not None for zs in world.zone_servers)
        # Sampling covered the run.
        start, end = res.cpu.common_window()
        assert end - start > 100

    def test_lb_off_has_no_migrations(self):
        from repro.analysis.fig5def import build_fig5_world, run_fig5

        campaign = quick_fig5(30.0)
        world = build_fig5_world(campaign, load_balancing=False)
        res = run_fig5(world, campaign)
        assert world.conductors == []
        assert res.migrations == []
        assert res.final_proc_counts() == {f"node{i}": 20 for i in range(1, 6)}
