"""Unit tests for the packet model and checksum semantics."""

import dataclasses

import pytest

from repro.net import (
    IPAddr,
    IP_HEADER_BYTES,
    Packet,
    PROTO_CTL,
    PROTO_TCP,
    PROTO_UDP,
    TCP_HEADER_BYTES,
    TCPFlags,
    TCPHeader,
    UDP_HEADER_BYTES,
    transport_checksum,
)
from repro.net.packet import new_packet


def make_tcp(payload=100, **kw):
    defaults = dict(
        src_ip=IPAddr("10.0.0.1"),
        dst_ip=IPAddr("10.0.0.2"),
        proto=PROTO_TCP,
        sport=1234,
        dport=80,
        payload_size=payload,
        tcp=TCPHeader(seq=1000, ack=2000),
    )
    defaults.update(kw)
    return Packet(**defaults)


def make_udp(payload=256):
    return Packet(
        src_ip=IPAddr("10.0.0.1"),
        dst_ip=IPAddr("10.0.0.2"),
        proto=PROTO_UDP,
        sport=1234,
        dport=27960,
        payload_size=payload,
    )


class TestPacket:
    def test_tcp_size_includes_headers(self):
        assert make_tcp(100).size == IP_HEADER_BYTES + TCP_HEADER_BYTES + 100

    def test_udp_size(self):
        assert make_udp(256).size == IP_HEADER_BYTES + UDP_HEADER_BYTES + 256

    def test_tcp_without_header_rejected(self):
        with pytest.raises(ValueError):
            make_tcp(tcp=None)

    def test_unknown_proto_rejected(self):
        with pytest.raises(ValueError):
            make_udp().proto  # fine
            Packet(
                src_ip=IPAddr("1.1.1.1"),
                dst_ip=IPAddr("2.2.2.2"),
                proto="icmp",
                sport=1,
                dport=2,
                payload_size=0,
            )

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            make_udp(-1)

    def test_distinct_packets_never_compare_equal(self):
        p = make_udp()
        assert p == p
        assert make_udp() != make_udp()

    def test_endpoints(self):
        p = make_tcp()
        assert str(p.src) == "10.0.0.1:1234"
        assert str(p.dst) == "10.0.0.2:80"

    def test_copy_is_deep_for_tcp_header(self):
        p = make_tcp()
        q = p.copy()
        q.tcp.seq = 9999
        assert p.tcp.seq == 1000

    @pytest.mark.parametrize("make", [make_tcp, make_udp])
    def test_new_packet_and_copy_set_every_field_like_the_constructor(self, make):
        p = make(dst_cache_ip=IPAddr("10.0.0.3"), sent_at=1.5) if make is make_tcp else make()
        p.checksum = 7
        init = [f.name for f in dataclasses.fields(Packet) if f.init]
        built = new_packet(*(getattr(p, name) for name in init))
        for q in (built, p.copy()):
            assert q is not p
            for f in dataclasses.fields(Packet):
                if f.name != "wire_seq":
                    assert getattr(q, f.name) == getattr(p, f.name), f.name

    def test_ctl_proto_allowed(self):
        p = Packet(
            src_ip=IPAddr("192.168.0.1"),
            dst_ip=IPAddr("192.168.0.2"),
            proto=PROTO_CTL,
            sport=9000,
            dport=9000,
            payload_size=64,
        )
        assert p.size == IP_HEADER_BYTES + UDP_HEADER_BYTES + 64


class TestChecksum:
    def test_seal_then_verify(self):
        p = make_tcp().seal()
        assert p.checksum_ok()

    def test_unsealed_fails(self):
        assert not make_tcp().checksum_ok()

    def test_rewriting_dst_ip_breaks_checksum(self):
        """The pseudo-header covers IPs: NAT must recompute (Sec. V-D)."""
        p = make_tcp().seal()
        p.dst_ip = IPAddr("10.0.0.99")
        assert not p.checksum_ok()
        p.seal()
        assert p.checksum_ok()

    def test_rewriting_src_ip_breaks_checksum(self):
        p = make_tcp().seal()
        p.src_ip = IPAddr("10.0.0.99")
        assert not p.checksum_ok()

    def test_seq_covered(self):
        p = make_tcp().seal()
        p.tcp.seq += 1
        assert not p.checksum_ok()

    def test_flags_covered(self):
        p = make_tcp().seal()
        p.tcp.flags = TCPFlags(fin=True)
        assert not p.checksum_ok()

    def test_copy_preserves_checksum_validity(self):
        p = make_tcp().seal()
        assert p.copy().checksum_ok()

    def test_deterministic(self):
        assert transport_checksum(make_tcp()) == transport_checksum(make_tcp())
