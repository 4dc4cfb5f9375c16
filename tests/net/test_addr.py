"""Unit tests for addressing primitives."""

import copy
import multiprocessing
import pickle

import pytest

from repro.net import Endpoint, FlowKey, IPAddr, PROTO_TCP


class TestIPAddr:
    def test_valid(self):
        ip = IPAddr("192.168.0.1")
        assert str(ip) == "192.168.0.1"

    @pytest.mark.parametrize(
        "bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1.2.3.-1"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            IPAddr(bad)

    def test_equality_and_hash(self):
        assert IPAddr("10.0.0.1") == IPAddr("10.0.0.1")
        assert hash(IPAddr("10.0.0.1")) == hash(IPAddr("10.0.0.1"))
        assert IPAddr("10.0.0.1") != IPAddr("10.0.0.2")

    def test_as_int(self):
        assert IPAddr("0.0.0.1").as_int() == 1
        assert IPAddr("1.0.0.0").as_int() == 1 << 24
        assert IPAddr("255.255.255.255").as_int() == 0xFFFFFFFF

    @pytest.mark.parametrize(
        "alias",
        [
            "1.2.3.\u0663",  # ARABIC-INDIC DIGIT THREE: int() reads it as 3
            "1.2.3.\u00b2",  # SUPERSCRIPT TWO: isdigit() but not int()
            "\uff11.2.3.4",  # FULLWIDTH DIGIT ONE
            "01.2.3.4",
            "1.2.3.04",
            "00.0.0.0",
            "1.2.3.4\n",
            " 1.2.3.4",
            "+1.2.3.4",
            "1.2..3",
        ],
    )
    def test_only_canonical_dotted_quads(self, alias):
        """Two spellings of one 32-bit value would be two unequal
        addresses with the same checksum input."""
        with pytest.raises(ValueError, match="malformed IPv4 address"):
            IPAddr(alias)

    def test_zero_octets(self):
        assert IPAddr("0.0.0.0").as_int() == 0
        assert IPAddr("10.0.0.1").as_int() == (10 << 24) | 1

    def test_repr(self):
        assert repr(IPAddr("10.0.0.1")) == "IPAddr(value='10.0.0.1')"

    def test_order_is_the_string_order(self):
        ips = [IPAddr(v) for v in ("9.0.0.1", "10.0.0.2", "10.0.0.10")]
        assert [ip.value for ip in sorted(ips)] == ["10.0.0.10", "10.0.0.2", "9.0.0.1"]
        assert IPAddr("10.0.0.1") < IPAddr("10.0.0.2") <= IPAddr("10.0.0.2")
        with pytest.raises(TypeError):
            IPAddr("10.0.0.1") < "10.0.0.2"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            IPAddr("10.0.0.1").value = "10.0.0.2"


def _echo(obj):
    return obj


class TestInterning:
    def test_one_instance_per_address(self):
        assert IPAddr("10.0.0.1") is IPAddr("10.0.0.1")
        assert IPAddr(value="10.0.0.1") is IPAddr("10.0.0.1")

    def test_pickle_and_copies_return_the_interned_instance(self):
        ip = IPAddr("10.0.0.7")
        assert pickle.loads(pickle.dumps(ip)) is ip
        assert copy.copy(ip) is ip
        assert copy.deepcopy(ip) is ip
        assert copy.deepcopy(Endpoint(ip, 80)).ip is ip

    def test_pool_round_trip_keeps_identity(self):
        """A sweep pool pickles each job to its worker and the result
        back; an address must come back as the same instance.  A fresh
        ``spawn`` worker holds no interned addresses of its own."""
        ip = IPAddr("10.0.0.8")
        with multiprocessing.get_context("spawn").Pool(processes=1) as pool:
            [back] = pool.map(_echo, [{"ip": ip, "peer": Endpoint(ip, 27960)}])
        assert back["ip"] is ip
        assert back["peer"].ip is ip


class TestEndpoint:
    def test_str(self):
        ep = Endpoint(IPAddr("10.0.0.1"), 8080)
        assert str(ep) == "10.0.0.1:8080"

    @pytest.mark.parametrize("port", [0, -1, 65536])
    def test_bad_port(self, port):
        with pytest.raises(ValueError):
            Endpoint(IPAddr("10.0.0.1"), port)


class TestFlowKey:
    def make(self):
        local = Endpoint(IPAddr("203.0.113.10"), 27960)
        remote = Endpoint(IPAddr("198.51.100.7"), 40000)
        return FlowKey(PROTO_TCP, local, remote)

    def test_capture_key_matches_paper_filter(self):
        """The capture filter matches (remote IP, remote port, local port)."""
        fk = self.make()
        assert fk.capture_key() == (IPAddr("198.51.100.7"), 40000, 27960)

    def test_reversed_round_trip(self):
        fk = self.make()
        assert fk.reversed().reversed() == fk
        assert fk.reversed().local == fk.remote

    def test_hashable(self):
        assert self.make() in {self.make()}
