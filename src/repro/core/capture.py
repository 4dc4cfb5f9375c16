"""Incoming packet-loss prevention (Sections III-B, V-B).

Before a socket is disabled on the source, the *destination* node
enables a capture filter for it: a netfilter ``NF_INET_LOCAL_IN`` hook
matching (remote IP, remote port, local port).  Matching packets are
stolen into a per-flow queue; for TCP, duplicated sequence numbers are
stored only once.  After the socket is restored and rehashed, the
reinjection phase submits each captured packet back into the stack via
the netfilter ``okfn()`` — our :meth:`ip_rcv_finish` — so nothing that
arrived while the socket was unresponsive is lost.

This only works because the router *broadcasts* inbound packets to every
node: the destination sees traffic for a socket it does not own yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net import IPAddr, PROTO_TCP, Packet
from ..oskern import NF_ACCEPT, NF_INET_LOCAL_IN, NF_STOLEN
from ..oskern.node import Host

__all__ = [
    "CaptureFilter",
    "CaptureService",
    "install_capture_service",
    "capture_key_for",
]

#: Filter match key: (remote ip, remote port, local port) — Section III-B.
#: For listening TCP sockets and bound UDP server sockets the remote end
#: is unknown, so a wildcard key (None, 0, local port) matches any peer.
CaptureKey = tuple[Optional[IPAddr], int, int]


def capture_key_for(sock) -> CaptureKey:
    """The capture key for a socket about to migrate."""
    if sock.remote is not None:
        return (sock.remote.ip, sock.remote.port, sock.local.port)
    return (None, 0, sock.local.port)


@dataclass
class CaptureFilter:
    """State for one captured flow."""

    key: CaptureKey
    packets: list[Packet] = field(default_factory=list)
    #: TCP sequence numbers already stored (dedup, Section V-B).
    seen_seqs: set[int] = field(default_factory=set)
    captured: int = 0
    duplicates_dropped: int = 0


class CaptureService:
    """The capture half of ``cap_trans_mod`` on one node."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._filters: dict[CaptureKey, CaptureFilter] = {}
        self._hook = None
        self.total_captured = 0
        self.total_reinjected = 0
        metrics = host.env.metrics
        if metrics is not None:
            metrics.gauge(
                f"capture.{host.name}.captured", fn=lambda: self.total_captured
            )
            metrics.gauge(
                f"capture.{host.name}.reinjected", fn=lambda: self.total_reinjected
            )

    # -- filter management ----------------------------------------------------
    def enable(self, keys: list[CaptureKey]) -> int:
        """Install capture filters; returns how many were added."""
        added = 0
        for key in keys:
            if key not in self._filters:
                self._filters[key] = CaptureFilter(key)
                added += 1
        if self._filters and self._hook is None:
            self._hook = self.host.kernel.netfilter.register(
                NF_INET_LOCAL_IN, self._capture_fn, priority=-100, name="mig-capture"
            )
        return added

    def disable(self, keys: list[CaptureKey]) -> None:
        for key in keys:
            self._filters.pop(key, None)
        if not self._filters and self._hook is not None:
            self.host.kernel.netfilter.unregister(self._hook)
            self._hook = None

    def active_keys(self) -> list[CaptureKey]:
        return list(self._filters)

    def queue_length(self, key: CaptureKey) -> int:
        f = self._filters.get(key)
        return len(f.packets) if f else 0

    # -- the hook ----------------------------------------------------------------
    def _capture_fn(self, pkt: Packet) -> str:
        # Runs on every inbound packet while any filter is armed; one
        # dict probe on the exact key, a second only for the wildcard.
        filters = self._filters
        filt = filters.get((pkt.src_ip, pkt.sport, pkt.dport))
        if filt is None:
            # Wildcard filter for listeners / unconnected UDP servers.
            filt = filters.get((None, 0, pkt.dport))
            if filt is None:
                return NF_ACCEPT
        if pkt.proto == PROTO_TCP and pkt.payload_size > 0:
            assert pkt.tcp is not None
            if pkt.tcp.seq in filt.seen_seqs:
                filt.duplicates_dropped += 1
                return NF_STOLEN  # duplicate data stored only once
            filt.seen_seqs.add(pkt.tcp.seq)
        filt.packets.append(pkt)
        filt.captured += 1
        self.total_captured += 1
        return NF_STOLEN

    # -- reinjection -----------------------------------------------------------
    def reinject(self, key: CaptureKey) -> int:
        """Feed captured packets back through ``okfn()`` and drop the
        filter.  Call *after* the migrated socket has been rehashed."""
        filt = self._filters.pop(key, None)
        if not self._filters and self._hook is not None:
            self.host.kernel.netfilter.unregister(self._hook)
            self._hook = None
        if filt is None:
            return 0
        # okfn(): ip_rcv_finish, bypassing LOCAL_IN like the real
        # netfilter continuation.
        okfn = self.host.kernel.stack.ip.ip_rcv_finish
        for pkt in filt.packets:
            okfn(pkt)
        n = len(filt.packets)
        self.total_reinjected += n
        return n

    def reinject_cost(self, key: CaptureKey) -> float:
        """CPU cost of the reinjection loop for this flow."""
        return self.queue_length(key) * self.host.kernel.costs.reinject_cost


def install_capture_service(host: Host) -> CaptureService:
    """Install (or fetch) the capture service on a host."""
    svc = host.daemons.get("capture")
    if svc is None:
        svc = CaptureService(host)
        host.daemons["capture"] = svc
    return svc
