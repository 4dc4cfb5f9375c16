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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net import Interface, PROTO_TCP, PROTO_UDP, Packet
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
        self.checksum_drops = 0
        self.no_socket_drops = 0
        self.hook_drops = 0
        self.hook_stolen = 0
        self.delivered = 0
        self.transmitted = 0

    # -- receive ----------------------------------------------------------
    def ip_rcv(self, pkt: Packet, iface: Interface) -> None:
        if not pkt.checksum_ok():
            self.checksum_drops += 1
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
        tables = self.stack.tables
        if pkt.proto == PROTO_TCP:
            sock = tables.ehash_lookup_rx(pkt)
            if sock is None:
                listener = tables.bhash_lookup(pkt.dst_ip, pkt.dport)
                if listener is not None and pkt.tcp is not None and pkt.tcp.flags.syn:
                    self.delivered += 1
                    listener.segment_arrives(pkt)
                    return
                # Cluster mode: silent drop — no RST, another node of the
                # single-IP cluster may own this flow.
                self.no_socket_drops += 1
                return
            self.delivered += 1
            sock.segment_arrives(pkt)
        elif pkt.proto == PROTO_UDP:
            sock = tables.udp_lookup(pkt.dst_ip, pkt.dport)
            if sock is None:
                self.no_socket_drops += 1
                return
            self.delivered += 1
            sock.datagram_arrives(pkt)
        else:  # pragma: no cover - ctl packets never reach the stack
            self.no_socket_drops += 1

    # -- transmit ------------------------------------------------------------
    def ip_output(self, pkt: Packet) -> None:
        if self._local_out and self._netfilter.run(NF_INET_LOCAL_OUT, pkt) != NF_ACCEPT:
            self.hook_drops += 1
            return
        # Physical egress follows the destination cache when attached.
        iface = self.stack.kernel.route(pkt.wire_dst)
        self.transmitted += 1
        iface.transmit(pkt)
