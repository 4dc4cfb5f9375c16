"""UDP sockets.

Migrating UDP sockets is considerably easier than TCP (Section V-C.2):
besides the main socket structure, only the receive-queue buffers are
tracked and transferred — and bound server sockets must be unhashed
before migration and rehashed on the destination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..des import Event
from ..net import Endpoint, IPAddr, PROTO_UDP, Packet

from .buffers import ReceiveQueue, SKBuff
from .dstcache import DstCacheEntry

if TYPE_CHECKING:  # pragma: no cover
    from .stack import NetworkStack

__all__ = ["UDPSocket"]


class UDPSocket:
    """A connectionless datagram socket."""

    def __init__(self, stack: "NetworkStack", proc: Any = None) -> None:
        self.stack = stack
        self.env = stack.env
        self.proc = proc
        self.local: Optional[Endpoint] = None
        #: Default destination set by connect() (optional for UDP).
        self.remote: Optional[Endpoint] = None
        self.receive_queue = ReceiveQueue(self.env)
        self.dst_entry: Optional[DstCacheEntry] = None
        self.hashed = False
        self.migrating = False
        #: See TCPSocket.orig_local_ip — set by in-cluster migration.
        self.orig_local_ip: Optional[IPAddr] = None
        self.datagrams_received = 0

    @property
    def kernel(self):
        return self.stack.kernel

    def bind(self, port: int, ip: Optional[IPAddr] = None) -> None:
        if self.hashed:
            raise RuntimeError("socket already bound")
        if ip is None:
            ip = self.stack.default_ip()
        self.local = Endpoint(ip, port)
        self.stack.tables.udp_insert(ip, port, self)
        self.hashed = True

    def connect(self, remote: Endpoint) -> None:
        """Set the default destination (no handshake for UDP)."""
        self.remote = remote
        self.dst_entry = DstCacheEntry(remote.ip)
        if self.local is None:
            iface = self.kernel.route(remote.ip)
            port = self.stack.alloc_ephemeral_port()
            self.local = Endpoint(iface.ip, port)
            self.stack.tables.udp_insert(iface.ip, port, self)
            self.hashed = True

    def sendto(self, payload: Any, size: int, dest: Endpoint) -> None:
        if self.local is None:
            iface = self.kernel.route(dest.ip)
            port = self.stack.alloc_ephemeral_port()
            self.local = Endpoint(iface.ip, port)
            self.stack.tables.udp_insert(iface.ip, port, self)
            self.hashed = True
        if size <= 0:
            raise ValueError("size must be positive")
        pkt = Packet(
            src_ip=self.local.ip,
            dst_ip=dest.ip,
            proto=PROTO_UDP,
            sport=self.local.port,
            dport=dest.port,
            payload_size=size,
            payload=payload,
            sent_at=self.env.now,
        )
        if self.dst_entry is not None and dest == self.remote:
            pkt.dst_cache_ip = self.dst_entry.ip
        pkt.seal()
        self.stack.ip.ip_output(pkt)

    def send(self, payload: Any, size: int) -> None:
        if self.remote is None:
            raise RuntimeError("send on unconnected UDP socket")
        self.sendto(payload, size, self.remote)

    def recv(self) -> Event:
        """Event succeeding with the next datagram as an SKBuff
        (``skb.src`` carries the sender endpoint, recvfrom-style)."""
        return self.receive_queue.get()

    def datagram_arrives(self, pkt: Packet) -> None:
        """Entry from the IP layer."""
        skb = SKBuff(
            seq=0,
            size=pkt.payload_size,
            payload=pkt.payload,
            src=Endpoint(pkt.src_ip, pkt.sport),
            ts_jiffies=self.kernel.jiffies.jiffies,
        )
        self.receive_queue.push(skb)
        self.datagrams_received += 1

    def force_userspace(self) -> None:
        """Checkpoint-signal semantics; UDP has no user lock or prequeue,
        so this is a no-op (kept for interface parity with TCP)."""

    def close(self) -> None:
        if self.hashed:
            assert self.local is not None
            self.stack.tables.udp_remove(self.local.ip, self.local.port)
            self.hashed = False

    def __repr__(self) -> str:
        return f"<UDPSocket {self.local} -> {self.remote}>"
