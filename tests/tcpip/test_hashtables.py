"""Unit tests for socket lookup tables."""

import pytest

from repro.net import Endpoint, FlowKey, IPAddr, PROTO_TCP
from repro.tcpip import SocketTables


def fk(port=1000):
    return FlowKey(
        PROTO_TCP,
        Endpoint(IPAddr("203.0.113.10"), 27960),
        Endpoint(IPAddr("198.51.100.1"), port),
    )


class TestEhash:
    def test_insert_lookup_remove(self):
        t = SocketTables()
        t.ehash_insert(fk(), "sock")
        assert t.ehash_lookup(fk()) == "sock"
        assert t.ehash_remove(fk()) == "sock"
        assert t.ehash_lookup(fk()) is None

    def test_collision_rejected(self):
        t = SocketTables()
        t.ehash_insert(fk(), "a")
        with pytest.raises(ValueError, match="ehash collision for tcp:203.0.113.10:27960<->198.51.100.1:1000"):
            t.ehash_insert(fk(), "b")
        assert t.ehash_lookup(fk()) == "a"

    def test_remove_missing_rejected(self):
        with pytest.raises(ValueError, match="not in ehash"):
            SocketTables().ehash_remove(fk())

    def test_keyed_by_the_receivers_four_tuple(self):
        """The receive path looks the socket up straight from a packet's
        header: (dst ip, dst port, src ip, src port)."""
        t = SocketTables()
        t.ehash_insert(fk(), "sock")
        assert t.ehash == {(IPAddr("203.0.113.10"), 27960, IPAddr("198.51.100.1"), 1000): "sock"}
        assert t.ehash_lookup(fk(1001)) is None


class TestBhash:
    def test_exact_and_wildcard_lookup(self):
        t = SocketTables()
        ip = IPAddr("203.0.113.10")
        t.bhash_insert(ip, 80, "exact")
        t.bhash_insert(None, 81, "wild")
        assert t.bhash_lookup(ip, 80) == "exact"
        assert t.bhash_lookup(ip, 81) == "wild"
        assert t.bhash_lookup(ip, 82) is None

    def test_port_collision(self):
        t = SocketTables()
        t.bhash_insert(None, 80, "a")
        with pytest.raises(ValueError):
            t.bhash_insert(None, 80, "b")

    def test_same_port_different_ip_ok(self):
        t = SocketTables()
        t.bhash_insert(IPAddr("10.0.0.1"), 80, "a")
        t.bhash_insert(IPAddr("10.0.0.2"), 80, "b")
        assert t.bhash_lookup(IPAddr("10.0.0.2"), 80) == "b"

    def test_remove(self):
        t = SocketTables()
        ip = IPAddr("10.0.0.1")
        t.bhash_insert(ip, 80, "a")
        assert t.bhash_remove(ip, 80) == "a"
        with pytest.raises(ValueError):
            t.bhash_remove(ip, 80)


class TestUdpHash:
    def test_insert_lookup_remove(self):
        t = SocketTables()
        ip = IPAddr("10.0.0.1")
        t.udp_insert(ip, 27960, "u")
        assert t.udp_lookup(ip, 27960) == "u"
        assert t.udp_remove(ip, 27960) == "u"
        assert t.udp_lookup(ip, 27960) is None

    def test_wildcard(self):
        t = SocketTables()
        t.udp_insert(None, 53, "dns")
        assert t.udp_lookup(IPAddr("1.2.3.4"), 53) == "dns"

    def test_collision(self):
        t = SocketTables()
        t.udp_insert(None, 53, "a")
        with pytest.raises(ValueError):
            t.udp_insert(None, 53, "b")

    def test_remove_missing(self):
        with pytest.raises(ValueError):
            SocketTables().udp_remove(None, 53)


def test_counts():
    t = SocketTables()
    t.ehash_insert(fk(), "s")
    t.bhash_insert(None, 80, "l")
    t.udp_insert(None, 53, "u")
    assert t.counts() == {"ehash": 1, "bhash": 1, "udp": 1}
