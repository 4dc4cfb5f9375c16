"""A world a runner builds is freed by reference counting when it returns.

Each runner below builds its own simulation world, extracts its results
and closes the world (``Cluster.close``).  Once the runner's result is
dropped, nothing of the world may be left for the cyclic collector:
every test runs with the collector off and checks a weak reference to
the world's environment, then runs the collector with ``DEBUG_SAVEALL``
and asserts that it finds no object of a ``repro`` type.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.des import Environment


@pytest.fixture
def built_envs(monkeypatch):
    """Weak references to every Environment built while the test runs,
    with the cyclic collector off."""
    refs = []
    init = Environment.__init__

    def tracking_init(env, *args, **kwargs):
        init(env, *args, **kwargs)
        refs.append(weakref.ref(env))

    monkeypatch.setattr(Environment, "__init__", tracking_init)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def assert_no_world_left(refs):
    assert refs, "the runner built no environment"
    assert [r for r in refs if r() is not None] == []
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    leaked = {type(o).__qualname__ for o in gc.garbage if type(o).__module__.startswith("repro")}
    assert leaked == set()


def test_run_campaign_frees_its_world(built_envs):
    from repro.scenarios.campaign import get_campaign, run_campaign

    result = run_campaign(get_campaign("flash-crowd-node-crash"), quick=True)
    assert result.passed
    del result
    assert_no_world_left(built_envs)


def test_run_freeze_sweep_frees_its_worlds(built_envs):
    from repro.analysis import SweepConfig, run_freeze_sweep

    cfg = SweepConfig(conn_counts=(8,), strategies=("collective",), repetitions=1)
    result = run_freeze_sweep(cfg)
    assert result.points[0].reports[0].success
    del result
    assert_no_world_left(built_envs)


def test_run_fig4_frees_its_worlds(built_envs):
    from repro.analysis import run_fig4
    from repro.openarena import Fig4Config

    result = run_fig4(Fig4Config(n_clients=4, warmup=1.0, cooldown=0.5, phase_sweep=(0.0,)))
    assert result.report.success
    del result
    assert_no_world_left(built_envs)


def test_run_fig5def_frees_its_worlds(built_envs):
    from repro.analysis import FIG5_QUICK_CAMPAIGN
    from repro.analysis.fig5def import run_fig5def

    campaign = FIG5_QUICK_CAMPAIGN.with_overrides(
        scenario=replace(FIG5_QUICK_CAMPAIGN.scenario, duration=20)
    )
    result = run_fig5def(campaign)
    assert result.with_lb.cpu.names()
    del result
    assert_no_world_left(built_envs)


def test_closed_migration_world_dies_with_its_last_reference(built_envs):
    from repro.core import LiveMigrationConfig
    from repro.scenarios.workload import HotSet
    from repro.testing import CLIENT_UPDATES, MigrationWorld, WorldSpec

    for writer in (HotSet(pages=8, interval=0.01), CLIENT_UPDATES):
        world = MigrationWorld(WorldSpec(pages=32, writer=writer, clients=2, peer=True))
        world.warm()
        report = world.migrate(LiveMigrationConfig(mode="postcopy"))
        assert world.check() == []
        world.close()
    assert report.success
    del world, report
    assert_no_world_left(built_envs)


def test_closed_cluster_dies_with_its_last_reference(built_envs):
    from repro.cluster import build_cluster
    from repro.testing import establish_clients, run_for

    cluster = build_cluster(n_nodes=2)
    cluster.install_balancers()
    node = cluster.nodes[0]
    proc = node.kernel.spawn_process("server")
    establish_clients(cluster, node, proc, 27960, 4)
    run_for(cluster, 1.0)
    cluster.close()
    cluster.close()  # a second close does nothing
    del cluster, node, proc
    assert_no_world_left(built_envs)


def test_closed_world_with_cohorts_dies_with_its_last_reference(built_envs):
    """Zone servers, dirtiers and load monitors all tick in cohorts; a
    member that left its cohort (frozen by a migration) is a process."""
    from repro.core import LiveMigrationConfig, migrate_process
    from repro.scenarios.campaign import build_world, drive_world, get_campaign

    campaign = get_campaign("hotset-postcopy")
    world = build_world(
        campaign.scenario, seed=campaign.seed, balancers=campaign.conductor_config(campaign.seed)
    )
    drive_world(world, campaign)
    cluster = world.cluster
    zs = world.zone_servers[0]
    dest = cluster.nodes[1]
    cluster.env.run(until=migrate_process(zs.current_node(), dest, zs.proc, LiveMigrationConfig()))
    cluster.env.run(until=cluster.env.now + 5.0)
    cluster.close()
    del world, cluster, zs, dest
    assert_no_world_left(built_envs)
