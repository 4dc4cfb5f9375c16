"""The one-shot migration world: build, warm, migrate, check."""

import dataclasses

import pytest

from repro.core import LiveMigrationConfig
from repro.faults import FaultPlan, MigdAbort, install_faults
from repro.scenarios.workload import HotSet, RotatingWindow
from repro.testing import CLIENT_UPDATES, MigrationWorld, WorldSpec

WRITERS = {
    "cold": None,
    "hotset": HotSet(pages=16, interval=0.002),
    "rotating": RotatingWindow(count=16, interval=0.002),
    "client-updates": CLIENT_UPDATES,
}


def migrated(spec, config=None, faults=None):
    """The world after one migration, and its report."""
    world = MigrationWorld(spec)
    if faults is not None:
        install_faults(world.cluster, FaultPlan(faults))
    world.warm()
    report = world.migrate(config or LiveMigrationConfig())
    return world, report


@pytest.mark.parametrize("mode", ["precopy", "postcopy"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_check_is_empty_after_a_successful_migration(writer, mode):
    spec = WorldSpec(pages=128, writer=WRITERS[writer], clients=2, peer=True)
    world, report = migrated(spec, LiveMigrationConfig(mode=mode))
    assert report.success
    assert world.check() == []
    assert world.proc.kernel is world.dest.kernel
    world.close()


def test_check_names_a_process_left_on_the_source():
    spec = WorldSpec(pages=64, writer=WRITERS["hotset"])
    world, report = migrated(spec, faults=[MigdAbort(0.0, "*", phase="precopy")])
    assert not report.success
    problems = world.check()
    assert world.proc.kernel is world.source.kernel
    assert problems[0].startswith("migration failed:")
    assert f"srv0 is not on {world.dest.name}" in problems
    world.close()


def test_check_before_any_migration_says_so():
    world = MigrationWorld(WorldSpec(pages=16))
    assert world.check()[0] == "no migration ran"
    world.close()


def test_one_spec_gives_equal_reports():
    spec = WorldSpec(
        name="zone_serv", seed=9, pages=256, prewrite=((0, 100),),
        writer=CLIENT_UPDATES, clients=8, peer=True, warmup=0.3,
    )
    reports = [dataclasses.asdict(migrated(spec)[1]) for _ in range(2)]
    assert reports[0] == reports[1]
    assert reports[0]["success"]
