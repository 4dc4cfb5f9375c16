"""Cohort-driven loops replay the per-process loops event for event.

The reference below runs every cohort member as a process of its own
that waits its own timeout each period: the per-process loop each
member body was before cohorts.  Each case builds one world twice, once
with the real cohorts and once with the reference, and compares the
address-space versions, dirty sets, dirtier stats, load-monitor
histories and the full trace JSONL.
"""

import gc

import pytest

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig, migrate_process
from repro.des import Cohort, Environment, Process
from repro.dve.space import ZoneGrid
from repro.dve.zoneserver import ZoneServer, ZoneServerConfig
from repro.faults import install_faults, parse_plan
from repro.middleware import LoadMonitor
from repro.obs.export import trace_to_jsonl
from repro.scenarios.workload import HotSet, start_dirtier
from repro.testing import run_for


def per_process_join(cohort, generator, name=None):
    cohort.env.process(generator, name=name)


def per_process_tick(cohort):
    return cohort.env.timeout(cohort.period)


def replay_both(monkeypatch, build):
    """``build()``'s observations with cohorts, then with the reference
    per-process loops; they must agree."""
    with_cohorts = build()
    with monkeypatch.context() as patch:
        patch.setattr(Cohort, "join", per_process_join)
        patch.setattr(Cohort, "tick", per_process_tick)
        reference = build()
    assert with_cohorts == reference
    return with_cohorts


def memory_of(procs):
    return [
        (
            list(p.address_space.content_snapshot().items()),
            list(p.address_space.dirty_pages()),
        )
        for p in procs
    ]


def new_cluster(n_nodes=2):
    cluster = build_cluster(n_nodes=n_nodes, with_db=False)
    cluster.env.enable_tracing()
    return cluster


def zone_servers(cluster, count=4):
    grid = ZoneGrid(2, 2, 2)
    config = ZoneServerConfig(n_client_conns=0, memory_pages=64, dirty_pages_per_second=7)
    return [
        ZoneServer(cluster, cluster.nodes[grid.initial_node_of(z)], z, config=config)
        for z in grid.zones[:count]
    ]


def area_procs(cluster, count, npages=256):
    out = []
    for i in range(count):
        node = cluster.nodes[0]
        proc = node.kernel.spawn_process(f"app{i}")
        out.append((node, proc, proc.address_space.mmap(npages, tag="heap")))
    return out


def observe(cluster, procs, stats=(), monitors=()):
    return {
        "now": cluster.env.now,
        "memory": memory_of(procs),
        "stats": [dict(s) for s in stats],
        "monitors": [
            (m.history.times.tolist(), m.history.values.tolist(), list(m._window))
            for m in monitors
        ],
        "trace": trace_to_jsonl(cluster.env.tracer),
    }


class TestExactness:
    def test_fluid_loops_freeze_on_tick_instants_and_thaw(self, monkeypatch):
        def build():
            cluster = new_cluster()
            env = cluster.env
            servers = zone_servers(cluster)
            cohort = None
            for zs in servers:
                cohort = zs.start(cohort)
            a, b = servers[1].proc, servers[2].proc

            def freeze_before_tick():
                # Created before the tick entry for t=2, so it pops first.
                yield env.timeout(2.0)
                a.freeze()
                yield env.timeout(1.5)
                a.thaw()

            def freeze_after_tick():
                # Each wait is created after that instant's tick entry.
                for _ in range(3):
                    yield env.timeout(1.0)
                b.freeze()
                yield env.timeout(2.0)
                b.thaw()  # on a tick instant too

            env.process(freeze_before_tick())
            env.process(freeze_after_tick())
            frozen = []
            for t in (2.5, 3.2, 4.0, 5.5, 9.0):
                env.run(until=t)
                frozen.append(memory_of([a, b]))
            return frozen, observe(cluster, [s.proc for s in servers])

        frozen, _ = replay_both(monkeypatch, build)
        assert frozen[0] != frozen[-1]

    def test_dirtiers_through_throttling_on_and_off(self, monkeypatch):
        def build():
            cluster = new_cluster()
            env = cluster.env
            apps = area_procs(cluster, 3)
            cohort = Cohort(env, 0.1)
            stats = [
                start_dirtier(env, proc, area, HotSet(pages=9, interval=0.1, offset=3 * i), cohort)
                for i, (_, proc, area) in enumerate(apps)
            ]
            node, proc, _ = apps[1]
            run_for(cluster, 0.5)
            node.kernel.cpu.set_throttle(proc, 0.4)
            run_for(cluster, 0.7)
            node.kernel.cpu.set_throttle(proc, 1.0)
            run_for(cluster, 1.0)
            return observe(cluster, [p for _, p, _ in apps], stats)

        seen = replay_both(monkeypatch, build)
        ticks = [s["ticks"] for s in seen["stats"]]
        assert ticks[1] < ticks[0] == ticks[2]

    def test_auto_convergence_throttles_a_cohort_member(self, monkeypatch):
        def build():
            cluster = new_cluster()
            env = cluster.env
            apps = area_procs(cluster, 2, npages=2048)
            cohort = Cohort(env, 0.02)
            stats = [
                start_dirtier(env, proc, area, HotSet(pages=2048, interval=0.02), cohort)
                for _, proc, area in apps
            ]
            run_for(cluster, 0.1)
            node, proc, _ = apps[0]
            config = LiveMigrationConfig(timeout_decay=1.0, max_rounds=4, auto_converge=True)
            report = env.run(until=migrate_process(node, cluster.nodes[1], proc, config))
            run_for(cluster, 0.3)
            return report.throttle_steps, observe(cluster, [p for _, p, _ in apps], stats)

        steps, _ = replay_both(monkeypatch, build)
        assert steps >= 1

    def test_postcopy_demand_fetch_from_a_cohort_member(self, monkeypatch):
        def build():
            cluster = new_cluster()
            env = cluster.env
            apps = area_procs(cluster, 3, npages=2048)
            cohort = Cohort(env, 0.002)
            hotset = HotSet(pages=8, interval=0.002, offset=2000)
            stats = [start_dirtier(env, proc, area, hotset, cohort) for _, proc, area in apps]
            run_for(cluster, 0.1)
            node, proc, _ = apps[1]
            config = LiveMigrationConfig(mode="postcopy")
            report = env.run(until=migrate_process(node, cluster.nodes[1], proc, config))
            run_for(cluster, 0.5)
            return report.postcopy_faults, observe(cluster, [p for _, p, _ in apps], stats)

        faults, seen = replay_both(monkeypatch, build)
        assert faults >= 1 and seen["stats"][1]["faulted"] >= 1

    def test_rpc_error_stops_a_cohort_member(self, monkeypatch):
        def build():
            cluster = new_cluster()
            env = cluster.env
            apps = area_procs(cluster, 3, npages=2048)
            cohort = Cohort(env, 0.0005)
            hotset = HotSet(pages=4, interval=0.0005, offset=2000)
            stats = [start_dirtier(env, proc, area, hotset, cohort) for _, proc, area in apps]
            run_for(cluster, 0.05)
            install_faults(cluster, parse_plan("t=0 abort migd * phase=postcopy"))
            node, proc, _ = apps[0]
            config = LiveMigrationConfig(mode="postcopy", rpc_timeout=1.0)
            env.run(until=migrate_process(node, cluster.nodes[1], proc, config))
            run_for(cluster, 2.0)
            return observe(cluster, [p for _, p, _ in apps], stats)

        seen = replay_both(monkeypatch, build)
        assert seen["stats"][0]["errors"] == 1
        assert seen["stats"][1]["errors"] == seen["stats"][2]["errors"] == 0

    def test_members_started_at_different_instants(self, monkeypatch):
        def build():
            cluster = new_cluster()
            env = cluster.env
            servers = zone_servers(cluster)
            apps = area_procs(cluster, 2)
            stats = []
            cohort = servers[0].start()
            monitors = [LoadMonitor(cluster.nodes[0], interval=0.5)]
            for i, zs in enumerate(servers[1:]):
                run_for(cluster, 0.25 * (i + 1))
                cohort = zs.start(cohort)
                _, proc, area = apps[i % 2]
                stats.append(start_dirtier(env, proc, area, HotSet(pages=5, interval=0.5)))
                monitors.append(LoadMonitor(cluster.nodes[1], interval=0.5))
                zs.set_population(40 * i)
            run_for(cluster, 4.0)
            procs = [s.proc for s in servers] + [p for _, p, _ in apps]
            return observe(cluster, procs, stats, monitors)

        replay_both(monkeypatch, build)

    def test_load_monitors_of_a_balanced_campaign(self, monkeypatch):
        from repro.scenarios.campaign import build_world, drive_world, get_campaign

        campaign = get_campaign("hotset-postcopy")

        def build():
            world = build_world(
                campaign.scenario,
                seed=campaign.seed,
                balancers=campaign.conductor_config(campaign.seed),
                tracing=True,
            )
            driver = drive_world(world, campaign)
            world.cluster.env.run(until=world.cluster.env.now + 30.0)
            procs = [zs.proc for zs in world.zone_servers]
            monitors = [c.monitor for c in world.conductors]
            seen = observe(world.cluster, procs, driver.dirtier_stats, monitors)
            moves = [e for c in world.conductors for e in c.events]
            world.cluster.close()
            return moves, seen

        moves, seen = replay_both(monkeypatch, build)
        assert len(moves) >= 3 and all(len(m[0]) == 30 for m in seen["monitors"])


def idle(cohort):
    while True:
        yield cohort.tick()


class TestCohort:
    def test_members_tick_in_join_order_off_one_entry(self):
        env = Environment()
        cohort = Cohort(env, 1.0)
        log = []

        def member(tag):
            while True:
                log.append((env.now, tag))
                yield cohort.tick()

        for tag in "abc":
            cohort.join(member(tag))
        env.run(until=0.5)
        assert len(env._queue) == 1
        env.run(until=2.5)
        assert log == [(t, tag) for t in (0.0, 1.0, 2.0) for tag in "abc"]

    def test_join_only_before_the_first_step(self):
        env = Environment()
        cohort = Cohort(env, 1.0)
        assert cohort.joinable
        cohort.join(idle(cohort))
        env.run(until=0.1)
        assert not cohort.joinable
        with pytest.raises(RuntimeError):
            cohort.join(idle(cohort))
        with pytest.raises(ValueError):
            Cohort(env, 0.0)

    def test_a_leaver_waits_as_a_process_then_keeps_its_own_period(self):
        env = Environment()
        cohort = Cohort(env, 1.0)
        gate = env.timeout(0.5)
        log = []

        def leaver():
            yield cohort.tick()
            yield gate  # already processed: resumes at once
            log.append(env.now)
            yield env.timeout(0.25)
            while True:
                log.append(env.now)
                yield cohort.tick()

        cohort.join(leaver())
        env.run(until=4.0)
        assert log == [1.0, 1.25, 2.25, 3.25]
        (proc,) = env._live
        assert isinstance(proc, Process) and proc.is_alive

    def test_a_member_failure_crashes_the_run_after_the_instant(self):
        env = Environment()
        cohort = Cohort(env, 1.0)
        log = []

        def bad():
            yield cohort.tick()
            raise KeyError("boom")

        def good():
            while True:
                yield cohort.tick()
                log.append(env.now)

        cohort.join(bad())
        cohort.join(good())
        with pytest.raises(KeyError, match="boom"):
            env.run(until=5.0)
        assert log == [1.0] and env.now == 1.0

    def test_close_closes_the_members(self):
        env = Environment()
        cohort = Cohort(env, 1.0)
        closed = []

        def member():
            try:
                while True:
                    yield cohort.tick()
            finally:
                closed.append(env.now)

        cohort.join(member())
        cohort.join(member())
        env.run(until=1.5)
        env.close()
        assert closed == [1.5, 1.5]
        assert not env._live
        del cohort
        gc.collect()
        assert gc.garbage == []
