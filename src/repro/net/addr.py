"""Addressing primitives: IP addresses, endpoints and flow keys."""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

__all__ = ["IPAddr", "Endpoint", "FlowKey", "PROTO_TCP", "PROTO_UDP", "PROTO_CTL"]

PROTO_TCP = "tcp"
PROTO_UDP = "udp"
#: Control-plane protocol used by daemons (conductor, migd, transd).
PROTO_CTL = "ctl"


#: Every octet in canonical form (ASCII digits, no leading zero) -> value.
_OCTETS = {str(i): i for i in range(256)}

#: value string -> its one IPAddr instance.
_interned: dict[str, "IPAddr"] = {}


@total_ordering
class IPAddr:
    """An IPv4-style address.

    Only used as an opaque, comparable identity; no subnetting logic is
    required by the model.  Interned: there is one instance per address,
    so ``==`` and ``hash`` are the identity ones and run at C speed on
    the per-packet path.  Only canonical dotted quads are accepted, so
    two spellings of one 32-bit value cannot become two addresses.
    """

    __slots__ = ("value", "_int")

    value: str
    _int: int

    def __new__(cls, value: str) -> "IPAddr":
        addr = _interned.get(value)
        if addr is None:
            parts = value.split(".") if type(value) is str else ()
            if len(parts) != 4 or not all(p in _OCTETS for p in parts):
                raise ValueError(f"malformed IPv4 address: {value!r}")
            a, b, c, d = (_OCTETS[p] for p in parts)
            addr = object.__new__(cls)
            object.__setattr__(addr, "value", value)
            object.__setattr__(addr, "_int", (a << 24) | (b << 16) | (c << 8) | d)
            _interned[value] = addr
        return addr

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle, copy and deepcopy all rebuild through the constructor,
        # which hands back the interned instance.
        return (IPAddr, (self.value,))

    def __lt__(self, other: object) -> bool:
        if type(other) is not IPAddr:
            return NotImplemented
        return self.value < other.value

    def __repr__(self) -> str:
        return f"IPAddr(value={self.value!r})"

    def __str__(self) -> str:
        return self.value

    def as_int(self) -> int:
        """Address as a 32-bit integer (used in checksum computation)."""
        return self._int


@dataclass(frozen=True, slots=True, order=True)
class Endpoint:
    """(IP, port) pair."""

    ip: IPAddr
    port: int

    def __post_init__(self) -> None:
        if not (0 < self.port <= 65535):
            raise ValueError(f"port out of range: {self.port}")

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass(frozen=True, slots=True, order=True)
class FlowKey:
    """Connection 4-tuple + protocol, from the *local* point of view.

    This is the key of the established-sockets hashtable (``ehash``); the
    packet-capture filter of Section III-B matches on exactly
    (remote ip, remote port, local port), which :meth:`capture_key`
    exposes.
    """

    proto: str
    local: Endpoint
    remote: Endpoint

    def capture_key(self) -> tuple[IPAddr, int, int]:
        """(remote ip, remote port, local port) — the capture filter match."""
        return (self.remote.ip, self.remote.port, self.local.port)

    def reversed(self) -> "FlowKey":
        """The same flow seen from the peer side."""
        return FlowKey(self.proto, self.remote, self.local)

    def __str__(self) -> str:
        return f"{self.proto}:{self.local}<->{self.remote}"
