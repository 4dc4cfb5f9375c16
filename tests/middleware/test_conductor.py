"""Integration tests for the conductor daemon."""

import pytest

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.middleware import (
    CONDUCTOR_PORT,
    ConductorConfig,
    PolicyConfig,
    install_conductor,
)
from repro.testing import run_for


def build_balanced_cluster(n_nodes=3, admission_capacity=1, **policy_kw):
    cluster = build_cluster(n_nodes=n_nodes, with_db=False)
    scan = [n.local_ip for n in cluster.nodes]
    config = ConductorConfig(
        policies=PolicyConfig(**policy_kw),
        check_interval=1.0,
        calm_down=3.0,
        admission_capacity=admission_capacity,
        migration=LiveMigrationConfig(initial_round_timeout=0.08),
    )
    conductors = [
        install_conductor(n, scan, cluster.node_by_local_ip, config)
        for n in cluster.nodes
    ]
    return cluster, conductors


def spawn_worker(cluster, node, demand, name="worker"):
    proc = node.kernel.spawn_process(name)
    proc.address_space.mmap(16)
    node.kernel.cpu.set_demand(proc, demand)
    return proc


class TestDiscoveryAndHeartbeat:
    def test_discovery_populates_peer_databases(self):
        cluster, conductors = build_balanced_cluster()
        run_for(cluster, 0.5)
        for cond in conductors:
            assert len(cond.peers) == 2

    def test_heartbeats_update_loads(self):
        cluster, conductors = build_balanced_cluster()
        node1 = cluster.nodes[0]
        proc = spawn_worker(cluster, node1, demand=1.6)
        run_for(cluster, 5.0)
        seen = conductors[1].peers.get(node1.local_ip)
        assert seen is not None
        assert seen.cpu_percent == pytest.approx(80.0, abs=5.0)

    def test_cluster_average_approximation(self):
        cluster, conductors = build_balanced_cluster()
        spawn_worker(cluster, cluster.nodes[0], demand=1.2)  # 60%
        run_for(cluster, 5.0)
        avg = conductors[1].peers.cluster_average(
            conductors[1].monitor.current_load()
        )
        assert avg == pytest.approx(20.0, abs=5.0)

    def test_install_is_idempotent(self):
        cluster, conductors = build_balanced_cluster()
        again = install_conductor(
            cluster.nodes[0],
            [n.local_ip for n in cluster.nodes],
            cluster.node_by_local_ip,
        )
        assert again is conductors[0]


class TestBalancing:
    def test_overloaded_node_sheds_to_lightest(self):
        cluster, conductors = build_balanced_cluster(imbalance_threshold=12)
        hot = cluster.nodes[0]
        # 4 workers x 45% of a core => 90% node CPU; others idle.
        procs = [
            spawn_worker(cluster, hot, demand=0.9, name=f"zs{i}") for i in range(4)
        ]
        for p in procs:
            conductors[0].manage(p)
        run_for(cluster, 30.0)
        assert conductors[0].migrations_initiated >= 1
        moved = [p for p in procs if p.kernel is not hot.kernel]
        assert moved
        # Loads converged: spread below the initiation threshold.
        loads = [c.monitor.current_load() for c in conductors]
        assert max(loads) - min(loads) < 40.0

    def test_migrated_process_managed_by_receiver(self):
        cluster, conductors = build_balanced_cluster()
        hot = cluster.nodes[0]
        procs = [
            spawn_worker(cluster, hot, demand=0.9, name=f"zs{i}") for i in range(4)
        ]
        for p in procs:
            conductors[0].manage(p)
        run_for(cluster, 30.0)
        moved = [p for p in procs if p.kernel is not hot.kernel]
        assert moved
        for p in moved:
            receiver = next(
                c for c in conductors if c.host.kernel is p.kernel
            )
            assert p in receiver.managed
            assert p not in conductors[0].managed

    def test_balanced_cluster_stays_quiet(self):
        cluster, conductors = build_balanced_cluster()
        for i, node in enumerate(cluster.nodes):
            p = spawn_worker(cluster, node, demand=1.0, name=f"zs{i}")
            conductors[i].manage(p)
        run_for(cluster, 20.0)
        assert all(c.migrations_initiated == 0 for c in conductors)

    def test_disabled_conductor_never_migrates(self):
        cluster, conductors = build_balanced_cluster()
        conductors[0].enabled = False
        procs = [
            spawn_worker(cluster, cluster.nodes[0], demand=0.9, name=f"zs{i}")
            for i in range(4)
        ]
        for p in procs:
            conductors[0].manage(p)
        run_for(cluster, 20.0)
        assert conductors[0].migrations_initiated == 0
        assert all(p.kernel is cluster.nodes[0].kernel for p in procs)

    def test_calm_down_limits_migration_rate(self):
        cluster, conductors = build_balanced_cluster()
        hot = cluster.nodes[0]
        procs = [
            spawn_worker(cluster, hot, demand=0.55, name=f"zs{i}") for i in range(8)
        ]
        for p in procs:
            conductors[0].manage(p)
        run_for(cluster, 7.0)
        # calm_down=3s: at most ~2 migrations can have completed by t=7.
        assert conductors[0].migrations_initiated <= 3

    def test_events_logged(self):
        cluster, conductors = build_balanced_cluster()
        hot = cluster.nodes[0]
        procs = [
            spawn_worker(cluster, hot, demand=0.9, name=f"zs{i}") for i in range(4)
        ]
        for p in procs:
            conductors[0].manage(p)
        run_for(cluster, 30.0)
        assert conductors[0].events
        ev = conductors[0].events[0]
        assert ev.success
        assert ev.source == "node1"
        assert ev.freeze_time < 0.05


class TestBatchLaunch:
    def test_capacity_one_is_sequential(self):
        """The default keeps the paper's one-at-a-time behaviour."""
        cluster, conductors = build_balanced_cluster(imbalance_threshold=12)
        assert all(c.admission.capacity == 1 for c in conductors)

    def test_capacity_two_runs_overlapping_sessions(self):
        cluster, conductors = build_balanced_cluster(
            admission_capacity=2, imbalance_threshold=12
        )
        tracer = cluster.env.enable_tracing()
        hot = cluster.nodes[0]
        procs = [
            spawn_worker(cluster, hot, demand=0.9, name=f"zs{i}") for i in range(4)
        ]
        for p in procs:
            conductors[0].manage(p)
        run_for(cluster, 30.0)
        moved = [p for p in procs if p.kernel is not hot.kernel]
        assert len(moved) >= 2
        assert conductors[0].migrations_initiated >= 2
        # Conductor events carry the session ids of the engines they ran.
        assert conductors[0].events
        assert all(ev.session for ev in conductors[0].events)
        # Reconstruct migration intervals from the trace (session labels
        # recur when a process later migrates back, so collect a list):
        # with a capacity-2 admission, at least one pair must overlap.
        open_starts, done = {}, []
        for ev in tracer.events:
            session = ev.fields.get("session")
            if session is None:
                continue
            if ev.name == "mig.start":
                open_starts[session] = ev.time
            elif ev.name in ("mig.complete", "mig.abort") and session in open_starts:
                done.append((open_starts.pop(session), ev.time))
        assert len(done) >= 2
        assert any(
            a[0] < b[1] and b[0] < a[1]
            for i, a in enumerate(done)
            for b in done[i + 1:]
        )


class TestReserveProtocol:
    def test_reserve_rejected_while_busy(self):
        cluster, conductors = build_balanced_cluster()
        run_for(cluster, 0.5)
        target = conductors[1]
        assert target.admission.try_reserve("someone")
        replies = []

        def ask():
            reply = yield cluster.nodes[0].control.rpc(
                cluster.nodes[1].local_ip,
                CONDUCTOR_PORT,
                {"op": "reserve", "sender": "node1"},
            )
            replies.append(reply)

        cluster.env.process(ask())
        run_for(cluster, 0.5)
        assert replies and replies[0]["ok"] is False
        assert target.reserve_rejections == 1

    def test_reserve_then_release(self):
        cluster, conductors = build_balanced_cluster()
        run_for(cluster, 0.5)

        def ask():
            reply = yield cluster.nodes[0].control.rpc(
                cluster.nodes[1].local_ip,
                CONDUCTOR_PORT,
                {"op": "reserve", "sender": "node1"},
            )
            assert reply["ok"]
            cluster.nodes[0].control.send(
                cluster.nodes[1].local_ip,
                CONDUCTOR_PORT,
                {"op": "release", "sender": "node1", "committed": False},
            )

        cluster.env.process(ask())
        run_for(cluster, 0.5)
        assert not conductors[1].admission.busy
        assert not conductors[1].admission.calming  # aborted, no calm-down


class TestHeartbeatJitter:
    """The heartbeat loop draws its jitter in blocks of ``JITTER_BLOCK``;
    the schedule must stay the one a scalar draw per beat gives."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1])
    def test_a_block_of_draws_equals_scalar_draws(self, seed):
        import numpy as np

        from repro.middleware.conductor import JITTER_BLOCK

        blocks, scalars = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = blocks.random(JITTER_BLOCK).tolist() + blocks.random(JITTER_BLOCK).tolist()
        assert drawn == [scalars.random() for _ in range(2 * JITTER_BLOCK)]
        # The streams stay in step after the blocks.
        assert blocks.random() == scalars.random()

    def test_heartbeat_instants_follow_one_scalar_draw_per_beat(self):
        import zlib

        import numpy as np

        from repro.middleware.conductor import (
            HEARTBEAT_INTERVAL,
            HEARTBEAT_JITTER,
            JITTER_BLOCK,
        )

        cluster, _ = build_balanced_cluster(n_nodes=2)
        cluster.env.enable_tracing()
        start = cluster.env.now
        run_for(cluster, HEARTBEAT_INTERVAL * (JITTER_BLOCK * 1.2 + 2))
        for node in cluster.nodes:
            got = [
                ev.time
                for ev in cluster.env.tracer.events
                if ev.name == "cond.heartbeat" and ev.fields["node"] == node.name
            ]
            assert len(got) > JITTER_BLOCK
            rng = np.random.default_rng(zlib.crc32(node.local_ip.value.encode()))
            t, expected = start, []
            for _ in got:
                t = t + HEARTBEAT_INTERVAL * (
                    1.0 + HEARTBEAT_JITTER * (2.0 * rng.random() - 1.0)
                )
                expected.append(t)
            assert got == expected
