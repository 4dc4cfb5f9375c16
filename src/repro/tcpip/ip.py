"""The IP layer: receive/transmit paths with netfilter traversal.

Receive path (``ip_rcv``):  checksum verification → ``NF_INET_LOCAL_IN``
hooks (capture / incoming translation) → socket demultiplexing.  In
*cluster mode* (shared public IP) packets without a matching socket are
dropped silently — another node of the single-IP cluster owns them.

Transmit path (``ip_output``): ``NF_INET_LOCAL_OUT`` hooks (outgoing
translation) → route → interface.  ``ip_rcv_finish`` is the reinjection
entry point the capture hook's ``okfn()`` uses after migration
(Section V-B): it bypasses the LOCAL_IN chain, exactly like the real
``okfn`` continuation runs *after* the hook that stole the packet.

:meth:`IPLayer.could_take` and :meth:`IPLayer.not_taken` let the node's
interfaces skip broadcast copies the receive path would only count
(:mod:`repro.net.router`); the drop counters therefore count those
copies when read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net import Interface, PROTO_TCP, PROTO_UDP, Packet
from ..net.packet import transport_checksum
from ..oskern.netfilter import (
    NF_ACCEPT,
    NF_INET_LOCAL_IN,
    NF_INET_LOCAL_OUT,
    NF_STOLEN,
)

if TYPE_CHECKING:  # pragma: no cover
    from .stack import NetworkStack

__all__ = ["IPLayer"]


class IPLayer:
    """Per-node IP receive/transmit machinery."""

    def __init__(self, stack: "NetworkStack") -> None:
        self.stack = stack
        netfilter = stack.kernel.netfilter
        self._netfilter = netfilter
        # The live chain lists: an empty chain is skipped without a call.
        self._local_in = netfilter.local_in
        self._local_out = netfilter.local_out
        self._tables = tables = stack.tables
        self._ehash = tables.ehash
        #: The node's interfaces that may hold skipped copies, settled
        #: before a drop counter is read.
        self.rx_ifaces: list[Interface] = []
        self._checksum_drops = 0
        self._no_socket_drops = 0
        self.hook_drops = 0
        self.hook_stolen = 0
        self.delivered = 0
        self.transmitted = 0

    @property
    def checksum_drops(self) -> int:
        self._settle_skipped()
        return self._checksum_drops

    @property
    def no_socket_drops(self) -> int:
        self._settle_skipped()
        return self._no_socket_drops

    def _settle_skipped(self) -> None:
        for iface in self.rx_ifaces:
            if iface._skipped:
                iface._settle_skipped()

    def deliver_skipped(self) -> None:
        """The node's receive state is about to change: its interfaces
        deliver the broadcast copies they skipped that are still in
        flight (see :meth:`repro.net.Interface.deliver_skipped`)."""
        for iface in self.rx_ifaces:
            if iface._skipped:
                iface.deliver_skipped()

    # -- receive ----------------------------------------------------------
    def ip_rcv(self, pkt: Packet, iface: Interface) -> None:
        if pkt.checksum != transport_checksum(pkt):
            self._checksum_drops += 1
            return
        if self._local_in:
            verdict = self._netfilter.run(NF_INET_LOCAL_IN, pkt)
            if verdict != NF_ACCEPT:
                if verdict == NF_STOLEN:
                    self.hook_stolen += 1
                else:
                    self.hook_drops += 1
                return
        self.ip_rcv_finish(pkt)

    def ip_rcv_finish(self, pkt: Packet) -> None:
        """Demultiplex to a socket; the ``okfn()`` reinjection target."""
        proto = pkt.proto
        if proto == PROTO_TCP:
            sock = self._ehash.get((pkt.dst_ip, pkt.dport, pkt.src_ip, pkt.sport))
            if sock is None:
                listener = self._tables.bhash_lookup(pkt.dst_ip, pkt.dport)
                if listener is not None and pkt.tcp is not None and pkt.tcp.flags.syn:
                    self.delivered += 1
                    listener.segment_arrives(pkt)
                    return
                # Cluster mode: silent drop — no RST, another node of the
                # single-IP cluster may own this flow.
                self._no_socket_drops += 1
                return
            self.delivered += 1
            sock.segment_arrives(pkt)
        elif proto == PROTO_UDP:
            sock = self._tables.udp_lookup(pkt.dst_ip, pkt.dport)
            if sock is None:
                self._no_socket_drops += 1
                return
            self.delivered += 1
            sock.datagram_arrives(pkt)
        else:  # pragma: no cover - ctl packets never reach the stack
            self._no_socket_drops += 1

    def could_take(self, pkt: Packet) -> bool:
        """False when :meth:`ip_rcv` would only count ``pkt`` dropped: no
        ``LOCAL_IN`` hook is registered and no socket would match it (for
        TCP an established flow, or a listener for a SYN; for UDP a
        bound port).  Control packets always go to the node."""
        if self._local_in:
            return True
        proto = pkt.proto
        tables = self._tables
        if proto == PROTO_TCP:
            if (pkt.dst_ip, pkt.dport, pkt.src_ip, pkt.sport) in self._ehash:
                return True
            return pkt.tcp.flags.syn and tables.bhash_lookup(pkt.dst_ip, pkt.dport) is not None
        if proto == PROTO_UDP:
            return tables.udp_lookup(pkt.dst_ip, pkt.dport) is not None
        return True

    def not_taken(self, pkt: Packet) -> None:
        """Count ``pkt`` as :meth:`ip_rcv` would when
        :meth:`could_take` is False."""
        if pkt.checksum != transport_checksum(pkt):
            self._checksum_drops += 1
        else:
            self._no_socket_drops += 1

    # -- transmit ------------------------------------------------------------
    def ip_output(self, pkt: Packet) -> None:
        if self._local_out and self._netfilter.run(NF_INET_LOCAL_OUT, pkt) != NF_ACCEPT:
            self.hook_drops += 1
            return
        # Physical egress follows the destination cache when attached
        # (``pkt.wire_dst``); the route cache is read first, as
        # ``Kernel.route`` would.
        dst = pkt.dst_cache_ip
        if dst is None:
            dst = pkt.dst_ip
        kernel = self.stack.kernel
        iface = kernel._route_cache.get(dst)
        if iface is None:
            iface = kernel.route(dst)
        self.transmitted += 1
        iface.transmit(pkt)
