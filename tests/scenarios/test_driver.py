"""The ScenarioDriver against a live cluster: allocation, accounting,
fault-gapped achievement, telemetry, and seeded determinism."""

import numpy as np
import pytest

from repro.faults import FaultPlan, NodeCrash, install_faults
from repro.scenarios import (
    BackgroundCycle,
    ConnectionMix,
    FlashCrowd,
    ScenarioDriver,
    ScenarioSpec,
    ZipfZones,
    series_prefix,
)
from repro.scenarios.campaign import build_world
from repro.scenarios.driver import allocate


def build(spec, seed=42, metrics=False):
    world = build_world(spec, seed=seed)
    if metrics:
        world.cluster.enable_metrics()
    return world.cluster, world.grid, world.zone_servers


class TestDriver:
    def test_populations_follow_weights(self):
        spec = ScenarioSpec(
            clients=160, duration=5, grid_cols=2, grid_rows=4, nodes=4,
            zones=ZipfZones(s=1.0),
        )
        cluster, grid, servers = build(spec)
        driver = ScenarioDriver(cluster, grid, servers, spec).start()
        cluster.env.run(until=5)
        pops = [zs.population for zs in servers]
        assert sum(pops) == 160
        assert pops[0] == max(pops)
        assert all(pops[i] >= pops[i + 1] for i in range(len(pops) - 1))
        assert driver.achieved_ratio() == 1.0

    def test_flash_crowd_targets_zone(self):
        spec = ScenarioSpec(
            clients=100, duration=20, grid_cols=2, grid_rows=4, nodes=4,
            shapes=[FlashCrowd(at=5, peak=2.0, ramp=1, hold=30, decay=1, zone=3)],
        )
        cluster, grid, servers = build(spec)
        ScenarioDriver(cluster, grid, servers, spec).start()
        cluster.env.run(until=20)
        # 100 base spread evenly, 200 extra all on zone 3.
        assert servers[3].population == pytest.approx(200 + 100 / 8, abs=2)

    def test_crash_opens_offered_achieved_gap(self):
        spec = ScenarioSpec(
            clients=80, duration=30, grid_cols=2, grid_rows=4, nodes=4
        )
        cluster, grid, servers = build(spec)
        driver = ScenarioDriver(cluster, grid, servers, spec).start()
        install_faults(cluster, FaultPlan([NodeCrash(10.0, "node4")]))
        cluster.env.run(until=30)
        counters = driver.counters()
        assert counters["scenario.offered_client_s"] > counters[
            "scenario.achieved_client_s"
        ]
        # Exactly one of four nodes (2 of 8 zones) unreachable for 20 of
        # the first 30 offered seconds.
        assert driver.achieved_ratio() == pytest.approx(1 - 0.25 * 20 / 30, abs=0.03)

    def test_mix_draws_churn_from_seeded_stream(self):
        spec = ScenarioSpec(
            clients=200, duration=20, grid_cols=2, grid_rows=4, nodes=4,
            mix=ConnectionMix(churn=0.2, long_lived=0.5),
        )
        totals = []
        for _ in range(2):
            cluster, grid, servers = build(spec, seed=9)
            driver = ScenarioDriver(cluster, grid, servers, spec).start()
            cluster.env.run(until=20)
            totals.append((driver.joins_total, driver.leaves_total))
        assert totals[0] == totals[1]  # same seed, same churn
        assert totals[0][0] > 200  # churn happened beyond initial joins

        cluster, grid, servers = build(spec, seed=10)
        driver = ScenarioDriver(cluster, grid, servers, spec).start()
        cluster.env.run(until=20)
        assert (driver.joins_total, driver.leaves_total) != totals[0]

    def test_background_procs_drive_unmanaged_demand(self):
        spec = ScenarioSpec(
            clients=8, duration=10, grid_cols=2, grid_rows=4, nodes=4,
            background=BackgroundCycle(base=0.8, amp=0.4, period=8),
        )
        cluster, grid, servers = build(spec)
        driver = ScenarioDriver(cluster, grid, servers, spec).start()
        cluster.env.run(until=3)
        assert len(driver._bg_procs) == 4
        demands = [
            proc.cpu_demand for _i, _node, proc in driver._bg_procs
        ]
        assert all(d > 0 for d in demands)
        assert max(demands) > min(demands)  # staggered phases

    def test_series_and_metrics_prefixed_by_campaign(self):
        spec = ScenarioSpec(clients=40, duration=5, grid_cols=2, grid_rows=4, nodes=4)
        cluster, grid, servers = build(spec, metrics=True)
        driver = ScenarioDriver(
            cluster, grid, servers, spec, campaign="mytest"
        ).start()
        cluster.env.run(until=5)
        prefix = series_prefix("mytest")
        assert prefix == "scenario.mytest."
        assert f"{prefix}offered" in driver.series
        assert f"{prefix}zone.0.clients" in driver.series
        snap = cluster.env.metrics.snapshot()
        assert snap["scenario.ticks_total"] == driver.ticks
        assert snap["scenario.achieved_ratio"] == 1.0

    def test_trace_vocabulary(self):
        spec = ScenarioSpec(
            clients=40, duration=5, grid_cols=2, grid_rows=4, nodes=4,
            shapes=[FlashCrowd(at=2, peak=1.0, ramp=1, hold=1, decay=1)],
        )
        cluster, grid, servers = build(spec)
        tracer = cluster.env.enable_tracing()
        ScenarioDriver(cluster, grid, servers, spec).start()
        cluster.env.run(until=7)
        names = [ev.name for ev in tracer.events]
        assert "scenario.start" in names
        assert "scenario.flash" in names
        assert "scenario.end" in names
        assert names.count("scenario.tick") == 5

    def test_rejects_mismatched_servers(self):
        spec = ScenarioSpec(clients=10, duration=5, grid_cols=2, grid_rows=4, nodes=4)
        cluster, grid, servers = build(spec)
        with pytest.raises(ValueError):
            ScenarioDriver(cluster, grid, servers[:-1], spec)

    def test_allocation_is_deterministic(self):
        spec = ScenarioSpec(
            clients=97, duration=5, grid_cols=2, grid_rows=4, nodes=4,
            zones=ZipfZones(s=0.7),
        )
        cluster, grid, servers = build(spec)
        w = spec.zones.weights(grid, 0.0)
        a = allocate(spec, 97, w, 0.0)
        b = allocate(spec, 97, w, 0.0)
        assert np.array_equal(a, b)
        assert a.sum() == 97
