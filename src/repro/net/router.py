"""The single-IP-address broadcast router (Section II-A).

Every packet arriving from the client side is *broadcast* to all server
nodes; whichever node holds the matching socket processes it, the others
silently drop it.  This is the property that lets the packet-capture
mechanism on a migration *destination* node see packets for a socket it
does not hold yet (Section III-B) — and why no router reconfiguration is
needed when connections move inside the cluster.

A copy for a node that could not take it (no socket, listener or
netfilter hook for it, or a downed interface) would only be counted
there.  Such a copy is still timed and counted on the link and takes its
event id, but it is not simulated per copy: the interface keeps it
(:meth:`~.nic.Interface.skip`) and counts it once the event heap passes
its arrival.  If the node's receive state changes first (a socket or
bound port is hashed, a ``LOCAL_IN`` hook registered, the interface
goes up or down, the handler changes or the world closes), the interface
turns every copy still in flight into a real delivery under the heap key
it reserved (:meth:`~.nic.Interface.deliver_skipped`), so every
simulated result is as if each copy had been delivered.  Links with a
tap or a fault filter always get a real copy.

Packets leaving the cluster are forwarded to the client host owning the
destination IP.
"""

from __future__ import annotations

from ..des import Environment
from .addr import IPAddr
from .link import Link
from .packet import Packet

__all__ = ["BroadcastRouter", "UnicastRouter"]


class BroadcastRouter:
    """Router with N server-side ports and per-client-IP uplink ports."""

    def __init__(self, env: Environment, name: str = "router") -> None:
        self.env = env
        self.name = name
        self._server_links: list[Link] = []
        self._client_links: dict[IPAddr, Link] = {}
        self.dropped_to_unknown_client = 0
        self.broadcast_count = 0

    # -- wiring -------------------------------------------------------------
    def add_server_port(self, link: Link) -> None:
        """Attach a server node's public link (router is side 0)."""
        link.attach(0, self._from_server)
        self._server_links.append(link)

    def add_client_port(self, client_ip: IPAddr, link: Link) -> None:
        """Attach a client host's link (router is side 0)."""
        if client_ip in self._client_links:
            raise ValueError(f"duplicate client IP {client_ip}")
        link.attach(0, self._from_client)
        self._client_links[client_ip] = link

    # -- forwarding -----------------------------------------------------------
    def _from_client(self, packet: Packet) -> None:
        """Inbound: broadcast a copy of the packet to every server node."""
        self.broadcast_count += 1
        for link in self._server_links:
            nic = link._owners[1]
            # No tap and no fault filter (``Link.trains_ok``): nothing on
            # the link needs to see the copy.
            if (
                nic is not None
                and not link._taps
                and link._fault_filter is None
                and nic.would_drop(packet)
            ):
                nic.skip(link.hold(packet, 0))
            else:
                link.send(packet.copy(), from_side=0)

    def _from_server(self, packet: Packet) -> None:
        """Outbound: unicast to the client host owning dst ip."""
        link = self._client_links.get(packet.dst_ip)
        if link is None:
            self.dropped_to_unknown_client += 1
            return
        link.send(packet, from_side=0)


class UnicastRouter(BroadcastRouter):
    """Negative-control router: NAT-style, forwards inbound packets to a
    single *current* node per flow instead of broadcasting.

    Models the NAT single-IP configuration the paper contrasts against
    (Takahashi et al. [8]): the router's mapping must be updated on every
    in-cluster migration, and until that happens inbound packets go to
    the *old* node — so capture-on-destination cannot see them and they
    are lost.
    """

    def __init__(self, env: Environment, name: str = "nat-router") -> None:
        super().__init__(env, name)
        #: flow (client ip, client port, server port) -> server link index
        self._flow_map: dict[tuple[IPAddr, int, int], int] = {}
        self.default_server = 0
        self.dropped_unmapped = 0

    def pin_flow(self, client_ip: IPAddr, client_port: int, server_port: int, server_index: int) -> None:
        """Install/update the NAT mapping for one flow."""
        if not (0 <= server_index < len(self._server_links)):
            raise ValueError("server index out of range")
        self._flow_map[(client_ip, client_port, server_port)] = server_index

    def _from_client(self, packet: Packet) -> None:
        key = (packet.src_ip, packet.sport, packet.dport)
        index = self._flow_map.get(key, self.default_server)
        if index >= len(self._server_links):
            self.dropped_unmapped += 1
            return
        self._server_links[index].send(packet.copy(), from_side=0)
