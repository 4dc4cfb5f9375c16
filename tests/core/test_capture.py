"""Unit tests for the packet-capture (loss-prevention) service."""


from repro.core import capture_key_for, install_capture_service
from repro.net import IPAddr, PROTO_TCP, Packet, TCPHeader
from repro.testing import establish_clients, run_for

from .conftest import make_server_proc


def tcp_pkt(seq=100, payload="d", size=64, sport=40000, dport=27960):
    return Packet(
        src_ip=IPAddr("198.51.100.1"),
        dst_ip=IPAddr("203.0.113.10"),
        proto=PROTO_TCP,
        sport=sport,
        dport=dport,
        payload_size=size,
        payload=payload,
        tcp=TCPHeader(seq=seq),
    ).seal()


KEY = (IPAddr("198.51.100.1"), 40000, 27960)


class TestCaptureService:
    def test_enable_captures_matching(self, two_nodes):
        node = two_nodes.nodes[0]
        svc = install_capture_service(node)
        svc.enable([KEY])
        node.stack.ip.ip_rcv(tcp_pkt(), node.public_iface)
        assert svc.queue_length(KEY) == 1
        assert node.stack.ip.hook_stolen == 1

    def test_non_matching_passes(self, two_nodes):
        node = two_nodes.nodes[0]
        svc = install_capture_service(node)
        svc.enable([KEY])
        node.stack.ip.ip_rcv(tcp_pkt(dport=9999), node.public_iface)
        assert svc.queue_length(KEY) == 0
        # No socket for it either -> silent drop, but not stolen.
        assert node.stack.ip.no_socket_drops == 1

    def test_duplicate_seq_stored_once(self, two_nodes):
        node = two_nodes.nodes[0]
        svc = install_capture_service(node)
        svc.enable([KEY])
        node.stack.ip.ip_rcv(tcp_pkt(seq=500), node.public_iface)
        node.stack.ip.ip_rcv(tcp_pkt(seq=500), node.public_iface)
        node.stack.ip.ip_rcv(tcp_pkt(seq=600), node.public_iface)
        assert svc.queue_length(KEY) == 2
        filt = svc._filters[KEY]
        assert filt.duplicates_dropped == 1

    def test_pure_acks_not_deduped(self, two_nodes):
        node = two_nodes.nodes[0]
        svc = install_capture_service(node)
        svc.enable([KEY])
        node.stack.ip.ip_rcv(tcp_pkt(seq=500, size=0), node.public_iface)
        node.stack.ip.ip_rcv(tcp_pkt(seq=500, size=0), node.public_iface)
        assert svc.queue_length(KEY) == 2

    def test_wildcard_key_matches_any_remote(self, two_nodes):
        node = two_nodes.nodes[0]
        svc = install_capture_service(node)
        svc.enable([(None, 0, 27960)])
        node.stack.ip.ip_rcv(tcp_pkt(sport=1111), node.public_iface)
        node.stack.ip.ip_rcv(tcp_pkt(sport=2222, seq=999), node.public_iface)
        assert svc.queue_length((None, 0, 27960)) == 2

    def test_reinject_deliver_to_socket(self, two_nodes):
        """Captured packets reach the socket after reinjection."""
        node, proc = make_server_proc(two_nodes)
        _, children, clients = establish_clients(two_nodes, node, proc, 27960, 1)
        server, client = children[0], clients[0]
        svc = install_capture_service(node)
        key = capture_key_for(server)
        svc.enable([key])
        client.send("while-captured", 64)
        run_for(two_nodes, 0.1)
        assert len(server.receive_queue) == 0  # stolen by the hook
        assert svc.queue_length(key) == 1
        n = svc.reinject(key)
        assert n == 1
        assert len(server.receive_queue) == 1
        assert svc.total_reinjected == 1

    def test_reinject_unknown_key_is_zero(self, two_nodes):
        svc = install_capture_service(two_nodes.nodes[0])
        assert svc.reinject(KEY) == 0

    def test_hook_removed_when_no_filters(self, two_nodes):
        node = two_nodes.nodes[0]
        svc = install_capture_service(node)
        svc.enable([KEY])
        assert len(node.kernel.netfilter.hooks("NF_INET_LOCAL_IN")) == 1
        svc.disable([KEY])
        assert len(node.kernel.netfilter.hooks("NF_INET_LOCAL_IN")) == 0

    def test_enable_idempotent(self, two_nodes):
        svc = install_capture_service(two_nodes.nodes[0])
        assert svc.enable([KEY, KEY]) == 1
        assert svc.enable([KEY]) == 0

    def test_install_service_singleton(self, two_nodes):
        node = two_nodes.nodes[0]
        assert install_capture_service(node) is install_capture_service(node)

    def test_capture_key_for(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        _, children, _ = establish_clients(two_nodes, node, proc, 27960, 1)
        server = children[0]
        key = capture_key_for(server)
        assert key == (server.remote.ip, server.remote.port, 27960)
        udp = node.stack.udp_socket(proc)
        udp.bind(5000, ip=node.public_ip)
        assert capture_key_for(udp) == (None, 0, 5000)

    def test_reinject_cost(self, two_nodes):
        node = two_nodes.nodes[0]
        svc = install_capture_service(node)
        svc.enable([KEY])
        node.stack.ip.ip_rcv(tcp_pkt(), node.public_iface)
        assert svc.reinject_cost(KEY) == node.kernel.costs.reinject_cost
