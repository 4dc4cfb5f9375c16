"""The in-cluster switch connecting the nodes' local interfaces.

Static forwarding by destination IP — the local network is fully known
at build time (DVE server nodes + database servers).  Local socket
migration traffic, middleware control messages and MySQL sessions all
ride on this switch, so bulk migration transfers contend with everything
else for local bandwidth.
"""

from __future__ import annotations

from typing import Optional

from ..des import Environment
from .addr import IPAddr
from .link import Link
from .packet import Packet

__all__ = ["Switch"]


class Switch:
    """Store-and-forward switch with one link per attached local IP."""

    def __init__(self, env: Environment, name: str = "switch") -> None:
        self.env = env
        self.name = name
        self._ports: dict[IPAddr, Link] = {}
        self.dropped_unknown_dst = 0
        self._forwarded = 0

    def add_port(self, local_ip: IPAddr, link: Link) -> None:
        """Attach a host's local link (switch is side 0)."""
        if local_ip in self._ports:
            raise ValueError(f"duplicate local IP {local_ip}")
        link.attach(0, self._forward, owner=self)
        self._ports[local_ip] = link

    def knows(self, ip: IPAddr) -> bool:
        return ip in self._ports

    @property
    def forwarded(self) -> int:
        """Packets forwarded so far, chunk-train chunks included."""
        now = self.env._now
        for link in self._ports.values():
            if link._trains:
                link._settle(now, -1)
        return self._forwarded

    def train_egress(self, dst: IPAddr) -> Optional[Link]:
        """The port a chunk train to ``dst`` leaves by, or ``None`` when
        its chunks must travel as packets: unknown destination, a tap or
        fault filter on the port, or a receiving interface that is down."""
        link = self._ports.get(dst)
        if link is None or not link.trains_ok:
            return None
        nic = link.owner(1)  # the host's interface (ports attach side 0)
        if nic is None or not nic.up:
            return None
        return link

    def _forward(self, packet: Packet) -> None:
        # Physical delivery follows the destination-cache entry when one
        # is attached (Section V-D), like next-hop MAC resolution would.
        link = self._ports.get(packet.wire_dst)
        if link is None:
            self.dropped_unknown_dst += 1
            return
        self._forwarded += 1
        if link._trains:
            # Chunks the heap would have forwarded first go out first.
            link._settle(self.env._now, packet.wire_seq)
        link.send(packet, from_side=0)
