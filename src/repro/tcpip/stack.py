"""Per-node network stack: socket tables + IP layer + socket factories."""

from __future__ import annotations

import itertools
from typing import Any

from ..net import IPAddr
from .hashtables import SocketTables
from .ip import IPLayer
from .tcp import TCPSocket
from .udp import UDPSocket

__all__ = ["NetworkStack"]


class NetworkStack:
    """Everything TCP/IP on one node."""

    EPHEMERAL_BASE = 32768

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        self.env = kernel.env
        #: The node's jiffies clock, which stamps its TCP timestamps.
        self.jiffies = kernel.jiffies
        self.tables = SocketTables()
        self.ip = IPLayer(self)
        self.tables.before_insert = self.ip.deliver_skipped
        self._next_ephemeral: int | None = None
        self._ephemeral_base = self.EPHEMERAL_BASE
        self._ephemeral_span = 28000
        self._iss = itertools.count(10_000, 64_000)

    def new_iss(self) -> int:
        """The next initial sequence number, counted per host like
        Linux's ISN generator."""
        return next(self._iss) % (1 << 32)

    def _init_ephemeral_range(self) -> None:
        """Disjoint per-node ephemeral ranges on the cluster network.

        When a socket migrates, its local address is rewritten to the
        destination node but its *port* is kept — so two processes
        migrated from different nodes must never have been handed the
        same ephemeral port, or their rewritten in-cluster flows would
        collide in the destination's ``ehash``.  Cluster deployments
        avoid this by carving the ephemeral range per node (keyed here
        by the local address's last octet; up to 60 cluster hosts).
        """
        iface = self.kernel.local_iface
        if iface is not None:
            octet = int(iface.ip.value.rsplit(".", 1)[1])
            self._ephemeral_base = self.EPHEMERAL_BASE + (octet % 60) * 450
            self._ephemeral_span = 450
        self._next_ephemeral = self._ephemeral_base

    def close(self) -> None:
        """Empty the socket tables and cut the stack's back-references, so
        no reference cycle keeps a finished node's sockets alive."""
        self.tables.ehash.clear()
        self.tables.bhash.clear()
        self.tables.udp_hash.clear()
        self.tables.before_insert = None
        self.ip._settle_skipped()
        self.ip.rx_ifaces.clear()
        self.ip.stack = None
        self.kernel = None

    # -- socket factories ------------------------------------------------------
    def tcp_socket(self, proc: Any = None) -> TCPSocket:
        """Create a TCP socket, installing it in ``proc``'s FD table."""
        sock = TCPSocket(self, proc=proc)
        self._install_fd(proc, sock)
        return sock

    def udp_socket(self, proc: Any = None) -> UDPSocket:
        sock = UDPSocket(self, proc=proc)
        self._install_fd(proc, sock)
        return sock

    def _install_fd(self, proc: Any, sock: Any) -> None:
        if proc is not None:
            from ..oskern.fdtable import SocketFile

            proc.fdtable.install(SocketFile(socket=sock))

    # -- plumbing ----------------------------------------------------------------
    def alloc_ephemeral_port(self) -> int:
        if self._next_ephemeral is None:
            self._init_ephemeral_range()
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral >= self._ephemeral_base + self._ephemeral_span:
            self._next_ephemeral = self._ephemeral_base
        return port

    def queue_bytes(self) -> tuple[int, int, int]:
        """(send, receive, out-of-order) queue bytes summed over every
        established TCP socket — the node-level occupancy the telemetry
        samplers export (pull-based; nothing is tracked on data paths)."""
        send = recv = ooo = 0
        for sock in self.tables.ehash.values():
            send += sum(b.size for b in sock.write_queue)
            recv += sum(b.size for b in sock.receive_queue)
            ooo += sum(b.size for b in sock.ooo_queue)
        return send, recv, ooo

    def default_ip(self) -> IPAddr:
        """Address used for wildcard-ish binds: public if present."""
        k = self.kernel
        if k.public_iface is not None:
            return k.public_iface.ip
        if k.local_iface is not None:
            return k.local_iface.ip
        raise RuntimeError("stack has no interface")
