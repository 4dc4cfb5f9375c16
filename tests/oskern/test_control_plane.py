"""Unit tests for the host control plane (daemon messaging + RPC)."""

import pytest

from repro.cluster import build_cluster
from repro.net import PROTO_CTL, Packet
from repro.oskern import CtlEnvelope, RpcError


@pytest.fixture
def cluster():
    return build_cluster(n_nodes=3, with_db=False)


class TestControlPlane:
    def test_one_way_message(self, cluster):
        n1, n2 = cluster.nodes[0], cluster.nodes[1]
        inbox = []
        n2.control.register(9000, lambda body, src, respond: inbox.append((body, src)))
        n1.control.send(n2.local_ip, 9000, {"hello": 1}, size=64)
        cluster.env.run()
        assert inbox == [({"hello": 1}, n1.local_ip)]

    def test_message_takes_wire_time(self, cluster):
        n1, n2 = cluster.nodes[0], cluster.nodes[1]
        arrival = []
        n2.control.register(9000, lambda b, s, r: arrival.append(cluster.env.now))
        n1.control.send(n2.local_ip, 9000, "x", size=100)
        cluster.env.run()
        # Two link hops (node->switch->node), each with the configured
        # local latency plus serialization time.
        assert arrival[0] > 2 * cluster.config.local_latency

    def test_rpc_round_trip(self, cluster):
        n1, n2 = cluster.nodes[0], cluster.nodes[1]

        def handler(body, src, respond):
            respond({"echo": body}, size=64)

        n2.control.register(9000, handler)
        results = []

        def caller():
            reply = yield n1.control.rpc(n2.local_ip, 9000, "ping", size=32)
            results.append(reply)

        cluster.env.process(caller())
        cluster.env.run()
        assert results == [{"echo": "ping"}]

    def test_rpc_error_propagates(self, cluster):
        n1, n2 = cluster.nodes[0], cluster.nodes[1]
        n2.control.register(9000, lambda b, s, respond: respond("nope", error=True))
        caught = []

        def caller():
            try:
                yield n1.control.rpc(n2.local_ip, 9000, "ping")
            except RpcError as exc:
                caught.append(str(exc))

        cluster.env.process(caller())
        cluster.env.run()
        assert caught == ["nope"]

    def test_unregistered_port_drops(self, cluster):
        n1, n2 = cluster.nodes[0], cluster.nodes[1]
        n1.control.send(n2.local_ip, 4242, "void")
        cluster.env.run()  # must not raise

    def test_duplicate_port_rejected(self, cluster):
        n1 = cluster.nodes[0]
        n1.control.register(9000, lambda b, s, r: None)
        with pytest.raises(ValueError):
            n1.control.register(9000, lambda b, s, r: None)

    def test_unregister_allows_reregister(self, cluster):
        n1 = cluster.nodes[0]
        n1.control.register(9000, lambda b, s, r: None)
        n1.control.unregister(9000)
        n1.control.register(9000, lambda b, s, r: None)

    def test_respond_is_none_for_one_way(self, cluster):
        n1, n2 = cluster.nodes[0], cluster.nodes[1]
        responders = []
        n2.control.register(9000, lambda b, s, respond: responders.append(respond))
        n1.control.send(n2.local_ip, 9000, "x")
        cluster.env.run()
        assert responders == [None]

    def test_db_host_reachable(self):
        cluster = build_cluster(n_nodes=2, with_db=True)
        inbox = []
        cluster.db.control.register(3306, lambda b, s, r: inbox.append(b))
        cluster.nodes[0].control.send(cluster.db.local_ip, 3306, "query")
        cluster.env.run()
        assert inbox == ["query"]


class TestControlPacket:
    """Control-plane packets are built without ``Packet.__post_init__``;
    each must still equal the packet the validating constructor builds."""

    def capture(self, host, monkeypatch):
        """``[(packet, send time), ...]`` of what ``host`` transmits."""
        sent = []
        iface = host.kernel.local_iface
        transmit = iface.transmit

        def record(pkt):
            sent.append((pkt, host.env.now))
            return transmit(pkt)

        monkeypatch.setattr(iface, "transmit", record)
        return sent

    def assert_built_like_packet(self, host, sent, size, **envelope):
        pkt, now = sent
        iface = host.kernel.route(pkt.dst_ip)
        ref = Packet(
            src_ip=iface.ip,
            dst_ip=pkt.dst_ip,
            proto=PROTO_CTL,
            sport=9000,
            dport=9000,
            payload_size=max(size, 1) + host.kernel.costs.ctl_overhead_bytes,
            payload=CtlEnvelope(src_ip=iface.ip, **envelope),
            sent_at=now,
        ).seal()
        # ``wire_seq`` is the link's stamp on a transmitted packet.
        for name in set(Packet.__slots__) - {"wire_seq"}:
            assert getattr(pkt, name) == getattr(ref, name), name
        assert pkt.checksum_ok()

    def test_send_rpc_and_reply_packets(self, cluster, monkeypatch):
        n1, n2 = cluster.nodes[0], cluster.nodes[1]
        out1 = self.capture(n1, monkeypatch)
        out2 = self.capture(n2, monkeypatch)
        n2.control.register(9000, lambda b, s, respond: respond and respond("no", size=0, error=True))

        n1.control.send(n2.local_ip, 9000, {"hello": 1}, size=64)
        self.assert_built_like_packet(n1, out1[0], 64, body={"hello": 1})

        caught = []

        def caller():
            try:
                yield n1.control.rpc(n2.local_ip, 9000, "ping", size=32)
            except RpcError as exc:
                caught.append(str(exc))

        cluster.env.process(caller())
        cluster.env.run()
        assert caught == ["no"]
        rpc_id = out1[1][0].payload.rpc_id
        assert rpc_id is not None
        self.assert_built_like_packet(n1, out1[1], 32, body="ping", rpc_id=rpc_id)
        (reply,) = out2
        self.assert_built_like_packet(
            n2, reply, 0, body="no", reply_to=rpc_id, is_error=True
        )
