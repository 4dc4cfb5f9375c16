"""Unit tests for the broadcast router, NAT router, switch and tracing."""

import pytest

from repro.des import Environment
from repro.net import (
    BroadcastRouter,
    IPAddr,
    Link,
    Packet,
    PacketTrace,
    PROTO_UDP,
    Switch,
    UnicastRouter,
)

CLUSTER_IP = IPAddr("203.0.113.10")
CLIENT_IP = IPAddr("198.51.100.7")


def udp(src, dst, sport=40000, dport=27960, payload=64):
    return Packet(
        src_ip=src, dst_ip=dst, proto=PROTO_UDP,
        sport=sport, dport=dport, payload_size=payload,
    )


@pytest.fixture
def env():
    return Environment()


def build_broadcast(env, n_nodes=3):
    router = BroadcastRouter(env)
    node_inboxes = []
    for _ in range(n_nodes):
        link = Link(env, name=f"pub{len(node_inboxes)}")
        inbox = []
        router.add_server_port(link)
        link.attach(1, lambda p, inbox=inbox: inbox.append(p))
        node_inboxes.append((link, inbox))
    client_link = Link(env, name="client")
    client_inbox = []
    router.add_client_port(CLIENT_IP, client_link)
    client_link.attach(1, lambda p: client_inbox.append(p))
    return router, node_inboxes, client_link, client_inbox


class TestBroadcastRouter:
    def test_inbound_broadcast_to_all_nodes(self, env):
        router, nodes, client_link, _ = build_broadcast(env)
        client_link.send(udp(CLIENT_IP, CLUSTER_IP), from_side=1)
        env.run()
        for _, inbox in nodes:
            assert len(inbox) == 1
        assert router.broadcast_count == 1

    def test_broadcast_copies_are_independent(self, env):
        _, nodes, client_link, _ = build_broadcast(env)
        client_link.send(udp(CLIENT_IP, CLUSTER_IP), from_side=1)
        env.run()
        pkts = [inbox[0] for _, inbox in nodes]
        assert len({id(p) for p in pkts}) == len(pkts)
        pkts[0].dst_ip = IPAddr("1.2.3.4")
        assert pkts[1].dst_ip == CLUSTER_IP

    def test_outbound_unicast_to_client(self, env):
        _, nodes, _, client_inbox = build_broadcast(env)
        node_link, _ = nodes[1]
        node_link.send(udp(CLUSTER_IP, CLIENT_IP, sport=27960, dport=40000), from_side=1)
        env.run()
        assert len(client_inbox) == 1

    def test_outbound_unknown_client_dropped(self, env):
        router, nodes, _, client_inbox = build_broadcast(env)
        node_link, _ = nodes[0]
        node_link.send(udp(CLUSTER_IP, IPAddr("9.9.9.9")), from_side=1)
        env.run()
        assert client_inbox == []
        assert router.dropped_to_unknown_client == 1

    def test_duplicate_client_ip_rejected(self, env):
        router, *_ = build_broadcast(env)
        with pytest.raises(ValueError):
            router.add_client_port(CLIENT_IP, Link(env))


class TestUnicastRouter:
    def build(self, env, n_nodes=3):
        router = UnicastRouter(env)
        inboxes = []
        for i in range(n_nodes):
            link = Link(env, name=f"pub{i}")
            inbox = []
            router.add_server_port(link)
            link.attach(1, lambda p, inbox=inbox: inbox.append(p))
            inboxes.append(inbox)
        client_link = Link(env, name="client")
        router.add_client_port(CLIENT_IP, client_link)
        client_link.attach(1, lambda p: None)
        return router, inboxes, client_link

    def test_default_goes_to_node0_only(self, env):
        router, inboxes, client_link = self.build(env)
        client_link.send(udp(CLIENT_IP, CLUSTER_IP), from_side=1)
        env.run()
        assert [len(i) for i in inboxes] == [1, 0, 0]

    def test_pinned_flow_follows_mapping(self, env):
        router, inboxes, client_link = self.build(env)
        router.pin_flow(CLIENT_IP, 40000, 27960, 2)
        client_link.send(udp(CLIENT_IP, CLUSTER_IP), from_side=1)
        env.run()
        assert [len(i) for i in inboxes] == [0, 0, 1]

    def test_pin_out_of_range(self, env):
        router, *_ = self.build(env)
        with pytest.raises(ValueError):
            router.pin_flow(CLIENT_IP, 1, 2, 99)


class TestSwitch:
    def test_forwarding_by_dst_ip(self, env):
        switch = Switch(env)
        ips = [IPAddr(f"192.168.0.{i}") for i in (1, 2)]
        inboxes = {}
        links = {}
        for ip in ips:
            link = Link(env, name=str(ip))
            switch.add_port(ip, link)
            inboxes[ip] = []
            link.attach(1, lambda p, ip=ip: inboxes[ip].append(p))
            links[ip] = link
        links[ips[0]].send(udp(ips[0], ips[1]), from_side=1)
        env.run()
        assert len(inboxes[ips[1]]) == 1
        assert len(inboxes[ips[0]]) == 0
        assert switch.forwarded == 1

    def test_unknown_dst_dropped(self, env):
        switch = Switch(env)
        ip = IPAddr("192.168.0.1")
        link = Link(env)
        switch.add_port(ip, link)
        link.attach(1, lambda p: None)
        link.send(udp(ip, IPAddr("192.168.0.99")), from_side=1)
        env.run()
        assert switch.dropped_unknown_dst == 1

    def test_duplicate_port_rejected(self, env):
        switch = Switch(env)
        ip = IPAddr("192.168.0.1")
        switch.add_port(ip, Link(env))
        with pytest.raises(ValueError):
            switch.add_port(ip, Link(env))

    def test_knows(self, env):
        switch = Switch(env)
        ip = IPAddr("192.168.0.1")
        assert not switch.knows(ip)
        switch.add_port(ip, Link(env))
        assert switch.knows(ip)


class TestPacketTrace:
    def test_records_and_gaps(self, env):
        link = Link(env, bandwidth_bps=1e9, latency=0.0, name="tap")
        link.attach(0, lambda p: None)
        link.attach(1, lambda p: None)
        trace = PacketTrace()
        trace.attach(link)

        def sender():
            for delay in (0.05, 0.05, 0.1):
                yield env.timeout(delay)
                link.send(udp(CLIENT_IP, CLUSTER_IP), from_side=0)

        env.process(sender())
        env.run()
        assert len(trace) == 3
        assert trace.times().tolist() == pytest.approx([0.05, 0.1, 0.2])

    def test_filter(self, env):
        link = Link(env, name="tap")
        link.attach(0, lambda p: None)
        link.attach(1, lambda p: None)
        trace = PacketTrace(filter_fn=lambda p: p.dport == 27960)
        trace.attach(link)
        link.send(udp(CLIENT_IP, CLUSTER_IP, dport=27960), from_side=0)
        link.send(udp(CLIENT_IP, CLUSTER_IP, dport=80), from_side=0)
        env.run()
        assert len(trace) == 1
