"""Packet model: IP + TCP/UDP headers with a computable checksum.

Packets carry a byte *size* (for link serialization-time accounting) and
an opaque *payload* object (application message, checkpoint chunk, ...)
instead of real bytes.  The transport checksum is computed over the
header fields that the paper's address-translation filter rewrites, so a
filter that forgets to fix the checksum produces packets the receiving
stack verifiably drops (Section V-D).
"""

from __future__ import annotations

import itertools
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from .addr import Endpoint, FlowKey, IPAddr, PROTO_CTL, PROTO_TCP, PROTO_UDP

__all__ = [
    "TCPFlags",
    "TCPHeader",
    "Packet",
    "transport_checksum",
    "IP_HEADER_BYTES",
    "TCP_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "reserve_packet_ids",
]

IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 32  # incl. timestamp option, as on Linux
UDP_HEADER_BYTES = 8

_packet_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class TCPFlags:
    """The TCP flag bits the model uses."""

    syn: bool = False
    ack: bool = False
    fin: bool = False
    rst: bool = False

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


@dataclass(slots=True)
class Packet:
    """A simulated IP datagram.

    Mutable on purpose: netfilter hooks (capture, address translation)
    rewrite header fields in place, exactly like ``skb`` mangling.
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
    pkt_id: int = field(default_factory=lambda: next(_packet_ids))
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
        if self.proto == PROTO_TCP:
            if self.tcp is None:
                raise ValueError("TCP packet without TCP header")
            hdr = IP_HEADER_BYTES + TCP_HEADER_BYTES
        elif self.proto in (PROTO_UDP, PROTO_CTL):
            hdr = IP_HEADER_BYTES + UDP_HEADER_BYTES  # ctl rides on UDP-like framing
        else:
            raise ValueError(f"unknown protocol {self.proto!r}")
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

    def flow_key_at_receiver(self) -> FlowKey:
        """FlowKey from the receiving host's point of view."""
        return FlowKey(self.proto, local=self.dst, remote=self.src)

    def seal(self) -> "Packet":
        """Compute and store the transport checksum.  Returns self."""
        self.checksum = transport_checksum(self)
        return self

    def checksum_ok(self) -> bool:
        """Verify the stored checksum against the current header fields."""
        return self.checksum == transport_checksum(self)

    def copy(self) -> "Packet":
        """Shallow copy with a fresh packet id (used by the broadcast
        router, which delivers one instance per node so that per-node
        header mangling never aliases)."""
        tcp = None
        if self.tcp is not None:
            tcp = TCPHeader(
                seq=self.tcp.seq,
                ack=self.tcp.ack,
                flags=self.tcp.flags,
                window=self.tcp.window,
                ts_val=self.tcp.ts_val,
                ts_ecr=self.tcp.ts_ecr,
            )
        return Packet(
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            proto=self.proto,
            sport=self.sport,
            dport=self.dport,
            payload_size=self.payload_size,
            payload=self.payload,
            tcp=tcp,
            checksum=self.checksum,
            sent_at=self.sent_at,
            dst_cache_ip=self.dst_cache_ip,
        )

    def __str__(self) -> str:
        base = f"{self.proto} {self.src}>{self.dst} len={self.size}"
        if self.tcp is not None:
            base += f" seq={self.tcp.seq} ack={self.tcp.ack} [{self.tcp.flags}]"
        return base


def reserve_packet_ids(count: int) -> None:
    """Advance the packet-id counter past ``count`` packets that are
    accounted for without being built (a chunk train's padding)."""
    deque(itertools.islice(_packet_ids, count), maxlen=0)


_PROTO_IDS = {PROTO_TCP: 6, PROTO_UDP: 17, PROTO_CTL: 253}
_PSEUDO = struct.Struct("!IIBHHI")
_TCP_PART = struct.Struct("!IIB")


def transport_checksum(pkt: Packet) -> int:
    """Checksum over the pseudo-header + transport header fields.

    Covers source/destination IP (the pseudo-header — this is why NAT-style
    rewriting must recompute it), ports, length, and for TCP the sequence
    numbers and flags.  CRC32 stands in for the Internet checksum; only
    the *dependency set* matters for the model.  (struct-packed: this is
    computed once per transmitted and once per received packet.)
    """
    buf = _PSEUDO.pack(
        pkt.src_ip.as_int(),
        pkt.dst_ip.as_int(),
        _PROTO_IDS[pkt.proto],
        pkt.sport,
        pkt.dport,
        pkt.payload_size,
    )
    tcp = pkt.tcp
    if tcp is not None:
        flags = tcp.flags
        bits = flags.syn | (flags.ack << 1) | (flags.fin << 2) | (flags.rst << 3)
        buf += _TCP_PART.pack(tcp.seq & 0xFFFFFFFF, tcp.ack & 0xFFFFFFFF, bits)
    return zlib.crc32(buf)
