"""Unit tests for migration admission (2PC + calm-down) and LoadMonitor."""

import pytest

from repro.cluster import build_cluster
from repro.des import Environment
from repro.middleware import LoadMonitor, MigrationAdmission
from repro.testing import run_for


class TestCapacityOneAdmission:
    """The paper's single busy-or-calming slot: capacity 1."""

    def test_reserve_release_cycle(self):
        env = Environment()
        slot = MigrationAdmission(env, capacity=1, calm_down=10)
        assert slot.try_reserve("node1")
        assert slot.busy
        assert not slot.try_reserve("node2")  # one migration at a time
        slot.release("node1")
        assert not slot.busy

    def test_calm_down_blocks_new_reservations(self):
        env = Environment()
        slot = MigrationAdmission(env, capacity=1, calm_down=10)
        slot.try_reserve("node1")
        slot.release("node1", start_calm_down=True)
        assert slot.calming
        assert not slot.try_reserve("node2")
        env.timeout(11)
        env.run()
        assert not slot.calming
        assert slot.try_reserve("node2")

    def test_abort_release_skips_calm_down(self):
        env = Environment()
        slot = MigrationAdmission(env, capacity=1, calm_down=10)
        slot.try_reserve("node1")
        slot.release("node1", start_calm_down=False)
        assert not slot.calming
        assert slot.try_reserve("node2")

    def test_release_by_wrong_owner_rejected(self):
        env = Environment()
        slot = MigrationAdmission(env, capacity=1)
        slot.try_reserve("node1")
        with pytest.raises(RuntimeError):
            slot.release("node2")

    def test_sender_side_calm_down(self):
        env = Environment()
        slot = MigrationAdmission(env, capacity=1, calm_down=5)
        slot.start_calm_down()
        assert slot.calming

    def test_negative_calm_down_rejected(self):
        with pytest.raises(ValueError):
            MigrationAdmission(Environment(), capacity=1, calm_down=-1)

    def test_slot_is_capacity_one_admission(self):
        slot = MigrationAdmission(Environment())
        assert slot.capacity == 1
        assert slot.calm_down == 10.0


class TestMigrationAdmission:
    def test_capacity_two_admits_two_sessions(self):
        env = Environment()
        adm = MigrationAdmission(env, capacity=2, calm_down=10)
        assert adm.try_reserve("node1")
        assert not adm.busy  # one unit still free
        assert adm.try_reserve("node2")
        assert adm.busy
        assert not adm.try_reserve("node3")
        adm.release("node1", start_calm_down=False)
        assert not adm.busy
        assert adm.holders == ["node2"]

    def test_per_session_calm_down_occupies_capacity(self):
        env = Environment()
        adm = MigrationAdmission(env, capacity=2, calm_down=10)
        adm.try_reserve("node1")
        adm.release("node1", start_calm_down=True)
        assert adm.calming
        assert adm.available == 1
        assert adm.try_reserve("node2")
        # One holder plus one cooling unit exhausts the capacity.
        assert not adm.try_reserve("node3")
        env.timeout(11)
        env.run()
        assert not adm.calming
        assert adm.try_reserve("node3")

    def test_same_sender_may_hold_several_units(self):
        env = Environment()
        adm = MigrationAdmission(env, capacity=2, calm_down=0)
        assert adm.try_reserve("node1")
        assert adm.try_reserve("node1")
        assert adm.in_flight == 2
        adm.release("node1")
        assert adm.in_flight == 1
        adm.release("node1")
        assert adm.in_flight == 0

    def test_release_by_non_holder_rejected(self):
        env = Environment()
        adm = MigrationAdmission(env, capacity=2)
        adm.try_reserve("node1")
        with pytest.raises(RuntimeError, match="no reservation"):
            adm.release("node2")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MigrationAdmission(Environment(), capacity=0)


class TestLoadMonitor:
    def test_samples_cpu_over_time(self):
        cluster = build_cluster(n_nodes=1, with_db=False)
        node = cluster.nodes[0]
        proc = node.kernel.spawn_process("p")
        monitor = LoadMonitor(node, interval=1.0)
        node.kernel.cpu.set_demand(proc, 1.0)  # 50% of 2 cores
        run_for(cluster, 5.0)
        assert monitor.current_load() == pytest.approx(50.0)
        assert len(monitor.history) >= 5

    def test_smoothing_window(self):
        cluster = build_cluster(n_nodes=1, with_db=False)
        node = cluster.nodes[0]
        proc = node.kernel.spawn_process("p")
        monitor = LoadMonitor(node, interval=1.0, window=3)
        run_for(cluster, 3.5)  # samples: 0,0,0
        node.kernel.cpu.set_demand(proc, 2.0)  # jump to 100%
        run_for(cluster, 1.0)  # one sample at 100
        # Smoothed: (0 + 0 + 100)/3.
        assert monitor.current_load() == pytest.approx(100 / 3, rel=0.01)
        assert monitor.instantaneous_load() == pytest.approx(100.0)

    def test_process_shares(self):
        cluster = build_cluster(n_nodes=1, with_db=False)
        node = cluster.nodes[0]
        a = node.kernel.spawn_process("a")
        b = node.kernel.spawn_process("b")
        node.kernel.cpu.set_demand(a, 1.0)
        node.kernel.cpu.set_demand(b, 0.5)
        monitor = LoadMonitor(node, interval=1.0)
        shares = dict(
            (p.name, s) for p, s in monitor.process_shares([a, b])
        )
        assert shares["a"] == pytest.approx(50.0)
        assert shares["b"] == pytest.approx(25.0)

    def test_invalid_params(self):
        cluster = build_cluster(n_nodes=1, with_db=False)
        with pytest.raises(ValueError):
            LoadMonitor(cluster.nodes[0], interval=0)
        with pytest.raises(ValueError):
            LoadMonitor(cluster.nodes[0], interval=1, window=0)
