"""Packet model: IP + TCP/UDP headers with a computable checksum.

Packets carry a byte *size* (for link serialization-time accounting) and
an opaque *payload* object (application message, checkpoint chunk, ...)
instead of real bytes.  The transport checksum is computed over the
header fields that the paper's address-translation filter rewrites, so a
filter that forgets to fix the checksum produces packets the receiving
stack verifiably drops (Section V-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .addr import Endpoint, IPAddr, PROTO_CTL, PROTO_TCP, PROTO_UDP

__all__ = [
    "TCPFlags",
    "TCPHeader",
    "Packet",
    "transport_checksum",
    "IP_HEADER_BYTES",
    "TCP_HEADER_BYTES",
    "UDP_HEADER_BYTES",
]

IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 32  # incl. timestamp option, as on Linux
UDP_HEADER_BYTES = 8

#: Header bytes per protocol (ctl rides on UDP-like framing).
_HEADER_BYTES = {
    PROTO_TCP: IP_HEADER_BYTES + TCP_HEADER_BYTES,
    PROTO_UDP: IP_HEADER_BYTES + UDP_HEADER_BYTES,
    PROTO_CTL: IP_HEADER_BYTES + UDP_HEADER_BYTES,
}

@dataclass(frozen=True, slots=True)
class TCPFlags:
    """The TCP flag bits the model uses."""

    syn: bool = False
    ack: bool = False
    fin: bool = False
    rst: bool = False
    #: The four flags as one int (syn 1, ack 2, fin 4, rst 8), as the
    #: checksum covers them.
    bits: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "bits", self.syn | (self.ack << 1) | (self.fin << 2) | (self.rst << 3)
        )

    def __str__(self) -> str:
        bits = [n.upper() for n in ("syn", "ack", "fin", "rst") if getattr(self, n)]
        return "|".join(bits) or "-"


@dataclass(slots=True)
class TCPHeader:
    """TCP header: sequence/ack numbers, flags and the timestamp option.

    ``ts_val`` carries the sender's jiffies clock — the field the paper
    must adjust on migration because source and destination nodes have
    different jiffies (Section V-C.1).
    """

    seq: int = 0
    ack: int = 0
    flags: TCPFlags = field(default_factory=TCPFlags)
    window: int = 65535
    ts_val: int = 0
    ts_ecr: int = 0


@dataclass(slots=True, eq=False)
class Packet:
    """A simulated IP datagram.

    Mutable on purpose: netfilter hooks (capture, address translation)
    rewrite header fields in place, exactly like ``skb`` mangling.  Two
    packets are equal only if they are the same packet.
    """

    src_ip: IPAddr
    dst_ip: IPAddr
    proto: str
    sport: int
    dport: int
    payload_size: int
    payload: Any = None
    tcp: Optional[TCPHeader] = None
    checksum: int = 0
    #: Packet generation time (set by the sender; diagnostics only).
    sent_at: float = 0.0
    #: IP destination-cache entry inherited from the originating socket
    #: (Section V-D).  When set, it — not ``dst_ip`` — decides where the
    #: packet is physically delivered, which is exactly the trap the
    #: paper's translation filter must handle by *replacing* the entry.
    dst_cache_ip: Optional[IPAddr] = None
    #: Total on-wire size in bytes (headers + payload).  Computed once at
    #: construction: header mangling rewrites addresses and ports, never
    #: the protocol or payload size, and the link layer reads this on
    #: every transmit.
    size: int = field(init=False, repr=False, compare=False, default=0)
    #: Event id of the delivery the last link scheduled for this packet
    #: (set by :meth:`repro.net.link.Link.send`).  A switch forwarding it
    #: uses it to order the packet against chunk trains that reach the
    #: switch at the same instant, exactly as the event heap would.
    wire_seq: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        hdr = _HEADER_BYTES.get(self.proto)
        if hdr is None:
            raise ValueError(f"unknown protocol {self.proto!r}")
        if self.proto == PROTO_TCP and self.tcp is None:
            raise ValueError("TCP packet without TCP header")
        if self.payload_size < 0:
            raise ValueError("negative payload size")
        self.size = hdr + self.payload_size

    @property
    def wire_dst(self) -> IPAddr:
        """Where the packet is physically delivered: the destination-cache
        entry when present, else the header destination."""
        return self.dst_cache_ip if self.dst_cache_ip is not None else self.dst_ip

    @property
    def src(self) -> Endpoint:
        return Endpoint(self.src_ip, self.sport)

    @property
    def dst(self) -> Endpoint:
        return Endpoint(self.dst_ip, self.dport)

    def seal(self) -> "Packet":
        """Compute and store the transport checksum.  Returns self."""
        self.checksum = transport_checksum(self)
        return self

    def checksum_ok(self) -> bool:
        """Verify the stored checksum against the current header fields."""
        return self.checksum == transport_checksum(self)

    def copy(self) -> "Packet":
        """Shallow copy (used by the broadcast router, which delivers one
        instance per node so that per-node header mangling never aliases)."""
        tcp = self.tcp
        if tcp is not None:
            tcp = TCPHeader(tcp.seq, tcp.ack, tcp.flags, tcp.window, tcp.ts_val, tcp.ts_ecr)
        return new_packet(
            self.src_ip,
            self.dst_ip,
            self.proto,
            self.sport,
            self.dport,
            self.payload_size,
            self.payload,
            tcp,
            self.checksum,
            self.sent_at,
            self.dst_cache_ip,
        )

    def __str__(self) -> str:
        base = f"{self.proto} {self.src}>{self.dst} len={self.size}"
        if self.tcp is not None:
            base += f" seq={self.tcp.seq} ack={self.tcp.ack} [{self.tcp.flags}]"
        return base


def new_packet(
    src_ip: IPAddr,
    dst_ip: IPAddr,
    proto: str,
    sport: int,
    dport: int,
    payload_size: int,
    payload: Any,
    tcp: Optional[TCPHeader],
    checksum: int,
    sent_at: float,
    dst_cache_ip: Optional[IPAddr],
) -> Packet:
    """``Packet(...)`` for fields the caller already knows valid (a copy,
    a TCP segment): assigns every init slot directly and skips the
    checks of ``__post_init__``, with the same size rule.
    A new :class:`Packet` field is added here too."""
    pkt = object.__new__(Packet)
    pkt.src_ip = src_ip
    pkt.dst_ip = dst_ip
    pkt.proto = proto
    pkt.sport = sport
    pkt.dport = dport
    pkt.payload_size = payload_size
    pkt.payload = payload
    pkt.tcp = tcp
    pkt.checksum = checksum
    pkt.sent_at = sent_at
    pkt.dst_cache_ip = dst_cache_ip
    pkt.size = _HEADER_BYTES[proto] + payload_size
    return pkt


_PROTO_IDS = {PROTO_TCP: 6, PROTO_UDP: 17, PROTO_CTL: 253}


def transport_checksum(pkt: Packet) -> int:
    """Checksum over the pseudo-header + transport header fields.

    Covers source/destination IP (the pseudo-header — this is why NAT-style
    rewriting must recompute it), ports, length, and for TCP the sequence
    numbers and flags.  The hash of a tuple of those fields as ints stands
    in for the Internet checksum; only the *dependency set* matters for
    the model.  It is exact for that purpose: equal fields give equal
    hashes, in every process (``PYTHONHASHSEED`` salts only str and
    bytes hashes), and no output holds a checksum, only whether it
    matched.  (Computed once per transmitted and once per received
    packet.)
    """
    tcp = pkt.tcp
    if tcp is None:
        return hash(
            (
                pkt.src_ip._int,
                pkt.dst_ip._int,
                _PROTO_IDS[pkt.proto],
                pkt.sport,
                pkt.dport,
                pkt.payload_size,
            )
        )
    return hash(
        (
            pkt.src_ip._int,
            pkt.dst_ip._int,
            _PROTO_IDS[pkt.proto],
            pkt.sport,
            pkt.dport,
            pkt.payload_size,
            tcp.seq & 0xFFFFFFFF,
            tcp.ack & 0xFFFFFFFF,
            tcp.flags.bits,
        )
    )
