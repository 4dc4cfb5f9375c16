"""A migrated-away address space dies when the migration completes.

In the paper the source process exits once BLCR has restarted it on the
destination, so its memory returns at once.  Here the migrating
``SimProcess`` gets a new address space, and the source's space and its
page stores must be freed by reference counting as soon as
``migrate_process`` completes — not whenever the cyclic collector next
runs.  Every test runs with that collector off.
"""

import gc
import weakref

import pytest

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig, migrate_process
from repro.oskern import AddressSpace
from repro.testing import run_for

MODES = ("precopy", "postcopy", "hybrid")


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def migrate_writer(mode, compression="none"):
    """Migrate a process whose workload writes throughout; returns the
    cluster, the process and weak references to the source's space and
    page store."""
    cluster = build_cluster(n_nodes=2, with_db=False)
    source, dest = cluster.nodes
    proc = source.kernel.spawn_process("writer")
    area = proc.address_space.mmap(1024, tag="heap")
    proc.address_space.write_range(area, 100, 5)

    def writer():
        while True:
            yield cluster.env.timeout(0.002)
            yield from proc.touch_range(area, 32, 0)

    cluster.env.process(writer())
    run_for(cluster, 0.1)
    space = weakref.ref(proc.address_space)
    store = weakref.ref(proc.address_space._stores[area.vma_id])
    cfg = LiveMigrationConfig(mode=mode, compression=compression)
    report = cluster.env.run(until=migrate_process(source, dest, proc, cfg))
    assert report.success, report.error
    assert proc.kernel is dest.kernel
    return cluster, proc, space, store


@pytest.mark.parametrize("compression", ["none", "xbzrle"])
@pytest.mark.parametrize("mode", MODES)
def test_source_space_dies_with_the_migration(no_gc, mode, compression):
    cluster, proc, space, store = migrate_writer(mode, compression)
    assert space() is None
    assert store() is None
    assert proc.address_space.total_pages == 1024


@pytest.mark.parametrize("mode", MODES)
def test_no_address_space_waits_for_the_collector(no_gc, mode):
    cluster, proc, _space, _store = migrate_writer(mode)
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    assert not [o for o in gc.garbage if isinstance(o, AddressSpace)]
