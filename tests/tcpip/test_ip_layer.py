"""IP-layer tests: checksum enforcement, hook interplay, counters."""

import pytest

from repro.cluster import build_cluster
from repro.net import IPAddr, Packet, PROTO_TCP, PROTO_UDP, TCPHeader
from repro.oskern import NF_ACCEPT, NF_DROP, NF_INET_LOCAL_IN, NF_INET_LOCAL_OUT, NF_STOLEN


@pytest.fixture
def node():
    return build_cluster(n_nodes=1, with_db=False).nodes[0]


def udp_pkt(node, seal=True, dport=4000):
    pkt = Packet(
        src_ip=IPAddr("198.51.100.1"),
        dst_ip=node.public_ip,
        proto=PROTO_UDP,
        sport=1234,
        dport=dport,
        payload_size=32,
    )
    return pkt.seal() if seal else pkt


class TestReceivePath:
    def test_bad_checksum_dropped_before_hooks(self, node):
        seen = []
        node.kernel.netfilter.register(
            NF_INET_LOCAL_IN, lambda p: seen.append(p) or NF_ACCEPT
        )
        node.stack.ip.ip_rcv(udp_pkt(node, seal=False), node.public_iface)
        assert node.stack.ip.checksum_drops == 1
        assert seen == []

    def test_hook_drop_counted(self, node):
        node.kernel.netfilter.register(NF_INET_LOCAL_IN, lambda p: NF_DROP)
        node.stack.ip.ip_rcv(udp_pkt(node), node.public_iface)
        assert node.stack.ip.hook_drops == 1

    def test_hook_steal_counted(self, node):
        node.kernel.netfilter.register(NF_INET_LOCAL_IN, lambda p: NF_STOLEN)
        node.stack.ip.ip_rcv(udp_pkt(node), node.public_iface)
        assert node.stack.ip.hook_stolen == 1

    def test_no_socket_silent_drop(self, node):
        node.stack.ip.ip_rcv(udp_pkt(node), node.public_iface)
        assert node.stack.ip.no_socket_drops == 1
        assert node.stack.ip.delivered == 0

    def test_delivery_counted(self, node):
        sock = node.stack.udp_socket()
        sock.bind(4000, ip=node.public_ip)
        node.stack.ip.ip_rcv(udp_pkt(node), node.public_iface)
        assert node.stack.ip.delivered == 1
        assert sock.datagrams_received == 1

    def test_rcv_finish_bypasses_local_in(self, node):
        """The okfn() reinjection path skips the LOCAL_IN chain."""
        node.kernel.netfilter.register(NF_INET_LOCAL_IN, lambda p: NF_DROP)
        sock = node.stack.udp_socket()
        sock.bind(4000, ip=node.public_ip)
        node.stack.ip.ip_rcv_finish(udp_pkt(node))
        assert sock.datagrams_received == 1

    def test_tcp_non_syn_without_socket_no_rst(self, node):
        """Cluster mode: stray TCP segments die silently (no RST that
        would kill another node's connection)."""
        pkt = Packet(
            src_ip=IPAddr("198.51.100.1"),
            dst_ip=node.public_ip,
            proto=PROTO_TCP,
            sport=1234,
            dport=5000,
            payload_size=10,
            tcp=TCPHeader(seq=1, ack=1),
        ).seal()
        before = node.public_iface.tx_packets
        node.stack.ip.ip_rcv(pkt, node.public_iface)
        assert node.stack.ip.no_socket_drops == 1
        assert node.public_iface.tx_packets == before  # nothing sent back


class TestTransmitPath:
    def test_local_out_hook_can_drop(self, node):
        node.kernel.netfilter.register(NF_INET_LOCAL_OUT, lambda p: NF_DROP)
        sock = node.stack.udp_socket()
        from repro.net import Endpoint

        sock.sendto("x", 16, Endpoint(IPAddr("198.51.100.9"), 1000))
        assert node.stack.ip.hook_drops == 1
        assert node.stack.ip.transmitted == 0

    def test_wire_dst_follows_dst_cache(self, node):
        """ip_output routes by the destination-cache entry."""
        sent = []
        orig = node.public_iface.transmit
        node.public_iface.transmit = lambda p: sent.append(p) or 0.0
        pkt = udp_pkt(node)
        pkt.src_ip, pkt.dst_ip = pkt.dst_ip, pkt.src_ip
        pkt.dst_cache_ip = IPAddr("198.51.100.99")
        pkt.seal()
        node.stack.ip.ip_output(pkt)
        assert sent and sent[0].wire_dst == IPAddr("198.51.100.99")
        node.public_iface.transmit = orig
