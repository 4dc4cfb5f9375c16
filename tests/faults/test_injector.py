"""FaultInjector delivery: link filters, node faults, determinism."""

import pytest

from repro.cluster import build_cluster
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkLoss,
    LinkPartition,
    NodeCrash,
    NodeStall,
    PacketCorrupt,
    install_faults,
)
from repro.testing import run_for


def pinger(cluster, sock, interval=0.01):
    def loop():
        while True:
            yield cluster.env.timeout(interval)
            sock.send(("ping",), 64)

    cluster.env.process(loop())


class TestLinkFaults:
    def test_partition_drops_everything_in_window(self, two_nodes):
        cluster = two_nodes
        a, b = cluster.nodes
        link = cluster.local_links["node2"]
        install_faults(cluster, FaultPlan([LinkPartition(0.0, "node2", duration=1.0)]))

        for _ in range(5):
            a.control.send(b.local_ip, 7100, {"op": "chunk"}, size=100)
        run_for(cluster, 1.5)  # past the window's end
        assert sum(link.packets_dropped) == 5
        # Window closed: traffic flows again.
        rx_before = b.local_iface.rx_packets
        for _ in range(5):
            a.control.send(b.local_ip, 7100, {"op": "chunk"}, size=100)
        run_for(cluster, 1.0)
        assert sum(link.packets_dropped) == 5
        assert b.local_iface.rx_packets == rx_before + 5

    def test_loss_rate_drops_some_packets(self, two_nodes):
        cluster = two_nodes
        a, b = cluster.nodes
        link = cluster.local_links["node2"]
        inj = install_faults(cluster, FaultPlan([LinkLoss(0.0, "node2", rate=0.5)]))
        for _ in range(200):
            a.control.send(b.local_ip, 7100, {"op": "chunk"}, size=100)
        run_for(cluster, 1.0)
        dropped = sum(link.packets_dropped)
        assert 0 < dropped < 200
        assert inj.packets_dropped == dropped

    def test_corruption_counts_separately(self, two_nodes):
        cluster = two_nodes
        a, b = cluster.nodes
        link = cluster.local_links["node2"]
        inj = install_faults(cluster, FaultPlan([PacketCorrupt(0.0, "node2", rate=1.0)]))
        a.control.send(b.local_ip, 7100, {"op": "chunk"}, size=100)
        run_for(cluster, 0.1)
        assert sum(link.packets_corrupted) == 1
        assert sum(link.packets_dropped) == 0
        assert inj.packets_corrupted == 1

    def test_dropped_packets_still_occupy_the_wire(self, two_nodes):
        """A partitioned link keeps serializing: its busy clock advances
        even though nothing is delivered."""
        cluster = two_nodes
        a, b = cluster.nodes
        link = cluster.local_links["node1"]
        install_faults(cluster, FaultPlan([LinkPartition(0.0, "node1")]))
        for _ in range(10):
            a.control.send(b.local_ip, 7100, {"op": "chunk"}, size=125_000)
        # 1.25 MB at 1 Gb/s: node1's transmit queue is busy for ~10 ms
        # even though every packet is being dropped.
        assert link.queueing_delay(1) > 0.005
        assert sum(link.packets_dropped) == 10

    def test_loss_is_deterministic_across_runs(self):
        def run_once():
            cluster = build_cluster(n_nodes=2, with_db=False)
            a, b = cluster.nodes
            install_faults(cluster, FaultPlan([LinkLoss(0.0, "node2", rate=0.3)]))
            for _ in range(100):
                a.control.send(b.local_ip, 7100, {"op": "chunk"}, size=100)
            run_for(cluster, 1.0)
            return tuple(cluster.local_links["node2"].packets_dropped)

        assert run_once() == run_once()


class TestNodeFaults:
    def test_crash_downs_interfaces_forever(self, two_nodes):
        cluster = two_nodes
        victim = cluster.nodes[1]
        install_faults(cluster, FaultPlan([NodeCrash(0.5, "node2")]))
        run_for(cluster, 1.0)
        assert not victim.local_iface.up
        assert not victim.public_iface.up
        run_for(cluster, 5.0)
        assert not victim.local_iface.up

    def test_stall_resumes(self, two_nodes):
        cluster = two_nodes
        victim = cluster.nodes[1]
        install_faults(cluster, FaultPlan([NodeStall(0.5, "node2", duration=1.0)]))
        run_for(cluster, 1.0)
        assert not victim.local_iface.up
        run_for(cluster, 1.0)
        assert victim.local_iface.up

    def test_crash_wins_over_stall_resume(self, two_nodes):
        cluster = two_nodes
        victim = cluster.nodes[1]
        install_faults(
            cluster,
            FaultPlan(
                [NodeStall(0.2, "node2", duration=1.0), NodeCrash(0.5, "node2")]
            ),
        )
        run_for(cluster, 3.0)
        assert not victim.local_iface.up

    def test_downed_interface_eats_in_flight_packets(self, two_nodes):
        """The up/down check runs at delivery time: packets on the wire
        when the interface goes down are lost."""
        cluster = two_nodes
        a, b = cluster.nodes
        a.control.send(b.local_ip, 7100, {"op": "chunk"}, size=100)
        b.local_iface.up = False  # down before the propagation delay ends
        rx_before = b.local_iface.rx_packets
        run_for(cluster, 0.1)
        assert b.local_iface.rx_packets == rx_before
        assert b.local_iface.rx_dropped == 1

    def test_unknown_targets_rejected(self, two_nodes):
        with pytest.raises(ValueError):
            install_faults(two_nodes, FaultPlan([LinkLoss(0.0, "nosuch")]))
        with pytest.raises(ValueError):
            cluster = build_cluster(n_nodes=2, with_db=False)
            inj = install_faults(cluster, FaultPlan([NodeCrash(0.0, "nosuch")]))
            run_for(cluster, 1.0)


class TestArming:
    def test_double_arm_rejected(self, two_nodes):
        inj = FaultInjector(two_nodes, FaultPlan())
        inj.arm()
        with pytest.raises(RuntimeError):
            inj.arm()
        with pytest.raises(RuntimeError):
            FaultInjector(two_nodes, FaultPlan()).arm()

    def test_traces_and_metrics(self, two_nodes):
        cluster = two_nodes
        tracer = cluster.env.enable_tracing()
        metrics = cluster.env.enable_metrics()
        inj = install_faults(
            cluster,
            FaultPlan(
                [NodeCrash(0.2, "node2"), LinkPartition(0.0, "node2", duration=0.1)]
            ),
        )
        a, b = cluster.nodes
        a.control.send(b.local_ip, 7100, {"op": "chunk"}, size=100)
        run_for(cluster, 1.0)
        names = [e.name for e in tracer.events]
        assert "fault.injected" in names
        assert "fault.node.crash" in names
        assert "fault.link.drop" in names
        assert inj.injected_total == 2
        assert "faults.injected_total" in metrics.names()
        assert metrics.snapshot()["faults.injected_total"] == 2
