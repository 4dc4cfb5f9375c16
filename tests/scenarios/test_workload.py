"""The dirtier workload: start_dirtier drives a HotSet pattern as a
live DES loop."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.scenarios import HotSet
from repro.scenarios.workload import dirtier_stats, start_dirtier
from repro.testing import run_for


@pytest.fixture
def proc_and_area():
    cluster = Cluster(ClusterConfig(n_nodes=1, with_db=False))
    proc = cluster.nodes[0].kernel.spawn_process("worker")
    area = proc.address_space.mmap(64, tag="state")
    return cluster, proc, area


class TestWorkload:
    def test_stats_shape(self):
        assert dirtier_stats() == {"ticks": 0, "faulted": 0, "errors": 0}

    def test_dirtier_redirties_hot_set(self, proc_and_area):
        cluster, proc, area = proc_and_area
        stats = start_dirtier(
            cluster.env, proc, area, HotSet(pages=8, interval=0.1, offset=4)
        )
        run_for(cluster, 1.05)
        assert stats == {"ticks": 10, "faulted": 0, "errors": 0}
        dirty = proc.address_space.dirty_pages()
        assert {area.start + 4 + i for i in range(8)} <= set(dirty)

    def test_veneer_matches_promoted_loop(self, proc_and_area):
        # The (count, interval, offset) arguments of the old one-import
        # fixture map one-to-one onto HotSet(pages, interval, offset).
        cluster, proc, area = proc_and_area
        count, interval, offset = 8, 0.1, 4
        stats = start_dirtier(
            cluster.env,
            proc,
            area,
            HotSet(pages=count, interval=interval, offset=offset),
        )
        run_for(cluster, 1.05)
        assert stats["ticks"] == 10
        assert stats["faulted"] == 0

    def test_hot_set_validation(self):
        with pytest.raises(ValueError):
            HotSet(pages=0)
        with pytest.raises(ValueError):
            HotSet(interval=0)
        with pytest.raises(ValueError):
            HotSet(offset=-1)
