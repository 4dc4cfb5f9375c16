"""Socket lookup tables: ``ehash``, ``bhash`` and the UDP port table.

Migrating a TCP socket starts by *unhashing* it from both the
established-connections table (``ehash``) and the bound-ports table
(``bhash``); restoring it on the destination ends with *rehashing* into
both (Section V-C.1).  UDP server sockets likewise must be unhashed and
rehashed (Section V-C.2).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..net import FlowKey, IPAddr

__all__ = ["SocketTables"]


#: ``ehash`` key: (local ip, local port, remote ip, remote port).  A flat
#: tuple of interned addresses and ints hashes and compares at C speed,
#: and :meth:`repro.tcpip.ip.IPLayer.ip_rcv_finish` builds it straight
#: from a packet's header.
EKey = tuple[IPAddr, int, IPAddr, int]


def _ekey(key: FlowKey) -> EKey:
    local, remote = key.local, key.remote
    return (local.ip, local.port, remote.ip, remote.port)


class SocketTables:
    """Per-node socket lookup state."""

    def __init__(self) -> None:
        #: Called before a socket or port is hashed: the node's IP layer
        #: then delivers the broadcast copies in flight that it might now
        #: take (:meth:`repro.tcpip.ip.IPLayer.deliver_skipped`).
        self.before_insert: Optional[Callable[[], None]] = None
        #: Established TCP connections: :data:`EKey` -> TCPSocket.
        self.ehash: dict[EKey, Any] = {}
        #: Bound/listening TCP sockets: (ip, port) -> TCPSocket.
        self.bhash: dict[tuple[Optional[IPAddr], int], Any] = {}
        #: Bound UDP sockets: (ip, port) -> UDPSocket.
        self.udp_hash: dict[tuple[Optional[IPAddr], int], Any] = {}

    # -- TCP established ------------------------------------------------------
    def ehash_insert(self, key: FlowKey, sock: Any) -> None:
        ekey = _ekey(key)
        if ekey in self.ehash:
            raise ValueError(f"ehash collision for {key}")
        if self.before_insert is not None:
            self.before_insert()
        self.ehash[ekey] = sock

    def ehash_remove(self, key: FlowKey) -> Any:
        try:
            return self.ehash.pop(_ekey(key))
        except KeyError:
            raise ValueError(f"{key} not in ehash") from None

    def ehash_lookup(self, key: FlowKey) -> Optional[Any]:
        return self.ehash.get(_ekey(key))

    # -- TCP bound/listening -----------------------------------------------------
    def bhash_insert(self, ip: Optional[IPAddr], port: int, sock: Any) -> None:
        key = (ip, port)
        if key in self.bhash:
            raise ValueError(f"port {port} already bound")
        if self.before_insert is not None:
            self.before_insert()
        self.bhash[key] = sock

    def bhash_remove(self, ip: Optional[IPAddr], port: int) -> Any:
        try:
            return self.bhash.pop((ip, port))
        except KeyError:
            raise ValueError(f"({ip}, {port}) not in bhash") from None

    def bhash_lookup(self, ip: Optional[IPAddr], port: int) -> Optional[Any]:
        """Exact (ip, port) first, then wildcard-IP bind."""
        sock = self.bhash.get((ip, port))
        if sock is None:
            sock = self.bhash.get((None, port))
        return sock

    # -- UDP -------------------------------------------------------------------
    def udp_insert(self, ip: Optional[IPAddr], port: int, sock: Any) -> None:
        key = (ip, port)
        if key in self.udp_hash:
            raise ValueError(f"udp port {port} already bound")
        if self.before_insert is not None:
            self.before_insert()
        self.udp_hash[key] = sock

    def udp_remove(self, ip: Optional[IPAddr], port: int) -> Any:
        try:
            return self.udp_hash.pop((ip, port))
        except KeyError:
            raise ValueError(f"({ip}, {port}) not in udp hash") from None

    def udp_lookup(self, ip: Optional[IPAddr], port: int) -> Optional[Any]:
        sock = self.udp_hash.get((ip, port))
        if sock is None:
            sock = self.udp_hash.get((None, port))
        return sock

    def counts(self) -> dict[str, int]:
        return {
            "ehash": len(self.ehash),
            "bhash": len(self.bhash),
            "udp": len(self.udp_hash),
        }
