"""Hosts: a kernel plus its interfaces plus the control plane.

A DVE server *node* is a host with both a public interface (shared
cluster IP, fed by the broadcast router) and a local one (unique cluster
address on the switch).  Database servers are local-only hosts; game
clients are public-only hosts.

The control plane carries the user-level daemons' traffic (conductor,
migd, transd) over the local network as sized packets, so bulk migration
data and middleware chatter genuinely contend for link bandwidth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..des import Environment, Event
from ..net import (
    IP_HEADER_BYTES,
    Interface,
    IPAddr,
    LOCAL,
    PROTO_CTL,
    PUBLIC,
    Packet,
    UDP_HEADER_BYTES,
)
from ..net.packet import new_packet, transport_checksum
from .costs import CostModel
from .kernel import Kernel

__all__ = ["Host", "ControlPlane", "CtlEnvelope", "RpcError"]


class RpcError(Exception):
    """Raised into an RPC waiter when the handler reports failure."""


@dataclass(slots=True)
class CtlEnvelope:
    """Framing for control-plane messages."""

    body: Any
    src_ip: IPAddr
    rpc_id: Optional[int] = None
    reply_to: Optional[int] = None
    is_error: bool = False


class ControlPlane:
    """Port-addressed datagram + RPC service for user-level daemons."""

    def __init__(self, env: Environment, kernel: Kernel) -> None:
        self.env = env
        self.kernel = kernel
        kernel.control = self  # type: ignore[attr-defined]
        #: port -> handler(body, src_ip, respond) where ``respond`` is
        #: ``None`` for one-way messages and a callable(body, size=...)
        #: for RPC requests.
        self._handlers: dict[int, Callable] = {}
        self._pending: dict[int, Event] = {}
        #: RPC ids: a reply is matched only in this plane's ``_pending``.
        self._rpc_ids = itertools.count(1)

    def register(self, port: int, handler: Callable) -> None:
        if port in self._handlers:
            raise ValueError(f"control port {port} already registered")
        self._handlers[port] = handler

    def unregister(self, port: int) -> None:
        self._handlers.pop(port, None)

    # -- sending ---------------------------------------------------------------
    def _transmit(
        self,
        dst_ip: IPAddr,
        port: int,
        body: Any,
        size: int,
        rpc_id: Optional[int] = None,
        reply_to: Optional[int] = None,
        is_error: bool = False,
    ) -> None:
        """Frame ``body`` from the interface that routes to ``dst_ip`` and
        transmit it (one route lookup; the envelope's source is that
        interface's address)."""
        iface = self.kernel.route(dst_ip)
        src_ip = iface.ip
        pkt = new_packet(
            src_ip,
            dst_ip,
            PROTO_CTL,
            port,
            port,
            max(size, 1) + self.kernel.costs.ctl_overhead_bytes,
            CtlEnvelope(body, src_ip, rpc_id, reply_to, is_error),
            None,
            0,
            self.env.now,
            None,
        )
        pkt.checksum = transport_checksum(pkt)
        iface.transmit(pkt)

    def send(self, dst_ip: IPAddr, port: int, body: Any, size: int = 256) -> None:
        """Fire-and-forget message."""
        self._transmit(dst_ip, port, body, size)

    def send_train(self, dst_ip: IPAddr, port: int, body: Any, size: int, count: int) -> None:
        """``count`` back-to-back copies of the one-way message ``body``
        for a destination that ignores them (bulk padding).

        They cross the wire as one chunk train (see
        :class:`repro.net.link.ChunkTrain`): the same link time and
        counters as ``count`` :meth:`send` calls, without a packet per
        copy.  Only an armed fault plane, or a tap on either hop, needs
        the real packets, and then gets them.
        """
        if count <= 0:
            return
        # Packet.size of each copy, as _transmit would frame it.
        wire = (
            IP_HEADER_BYTES + UDP_HEADER_BYTES + max(size, 1)
            + self.kernel.costs.ctl_overhead_bytes
        )
        iface = self.kernel.route(dst_ip)
        if self.env.faults is None and iface.transmit_train(count, wire, dst_ip):
            return
        for _ in range(count):
            self.send(dst_ip, port, body, size=size)

    def rpc(
        self,
        dst_ip: IPAddr,
        port: int,
        body: Any,
        size: int = 256,
        timeout: Optional[float] = None,
    ) -> Event:
        """Request/response: the returned event succeeds with the reply
        body, or fails with :class:`RpcError` — immediately on an error
        reply, or after ``timeout`` seconds of silence (daemon crashed,
        node unreachable)."""
        rpc_id = next(self._rpc_ids)
        ev = Event(self.env)
        self._pending[rpc_id] = ev
        self._transmit(dst_ip, port, body, size, rpc_id=rpc_id)
        if timeout is not None:
            timer = self.env.timeout(timeout)

            def expire(_t):
                pending = self._pending.pop(rpc_id, None)
                if pending is not None:
                    pending.fail(RpcError(f"rpc to {dst_ip}:{port} timed out"))

            timer.callbacks.append(expire)
        return ev

    # -- receiving -----------------------------------------------------------------
    def dispatch(self, packet: Packet) -> None:
        envelope: CtlEnvelope = packet.payload
        if envelope.reply_to is not None:
            ev = self._pending.pop(envelope.reply_to, None)
            if ev is not None:
                if envelope.is_error:
                    ev.fail(RpcError(envelope.body))
                else:
                    ev.succeed(envelope.body)
            return

        handler = self._handlers.get(packet.dport)
        if handler is None:
            return  # nothing listening: drop, like an ICMP-less UDP void

        respond = None
        if envelope.rpc_id is not None:
            src = envelope.src_ip
            rpc_id = envelope.rpc_id
            port = packet.dport

            def respond(body: Any, size: int = 256, error: bool = False) -> None:
                self._transmit(src, port, body, size, reply_to=rpc_id, is_error=error)

        handler(envelope.body, envelope.src_ip, respond)


class Host:
    """A machine: kernel + up to two interfaces + optional control plane."""

    def __init__(
        self,
        env: Environment,
        name: str,
        public_ip: Optional[IPAddr] = None,
        local_ip: Optional[IPAddr] = None,
        cores: int = 2,
        jiffies_offset: int = 0,
        cost_model: Optional[CostModel] = None,
        local_prefix: str = "192.168.",
    ) -> None:
        if public_ip is None and local_ip is None:
            raise ValueError("a host needs at least one interface")
        self.env = env
        self.name = name
        self.kernel = Kernel(
            env,
            node_name=name,
            cores=cores,
            jiffies_offset=jiffies_offset,
            cost_model=cost_model,
            local_prefix=local_prefix,
        )
        self.public_iface: Optional[Interface] = None
        self.local_iface: Optional[Interface] = None
        if public_ip is not None:
            self.public_iface = Interface(public_ip, PUBLIC, f"{name}-pub")
            self.kernel.attach_public(self.public_iface)
        if local_ip is not None:
            self.local_iface = Interface(local_ip, LOCAL, f"{name}-loc")
            self.kernel.attach_local(self.local_iface)
        self.control = ControlPlane(env, self.kernel)
        #: Daemons installed on this host (conductor, migd, transd, ...).
        self.daemons: dict[str, Any] = {}

    def close(self) -> None:
        """Close and forget the daemons (those with a ``close`` method cut
        their own cycles), drop the control plane's handlers and its
        kernel link and close the kernel (see :meth:`Kernel.close`), so
        no reference cycle keeps a finished host alive."""
        for daemon in self.daemons.values():
            close = getattr(daemon, "close", None)
            if close is not None:
                close()
        self.daemons.clear()
        self.control._handlers.clear()
        self.kernel.control = None
        self.kernel.close()

    @property
    def local_ip(self) -> IPAddr:
        return self.kernel.local_ip

    @property
    def public_ip(self) -> IPAddr:
        return self.kernel.public_ip

    @property
    def stack(self):
        return self.kernel.stack

    def __repr__(self) -> str:
        return f"<Host {self.name}>"
