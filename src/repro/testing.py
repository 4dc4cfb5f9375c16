"""Shared fixtures and helpers for tests, examples and benchmarks.

These are *simulation-building* helpers, not assertions: establishing
client connections through the broadcast router, draining accept loops,
and driving simple echo traffic.
"""

from __future__ import annotations

from typing import Optional

from .cluster import Cluster
from .net import Endpoint
from .oskern import Host, SimProcess
from .tcpip import TCPSocket

__all__ = [
    "accept_all",
    "establish_clients",
    "connect_local_tcp",
    "run_for",
]


def run_for(cluster: Cluster, duration: float) -> None:
    """Advance the simulation by ``duration`` seconds."""
    cluster.env.run(until=cluster.env.now + duration)


def accept_all(cluster: Cluster, listener: TCPSocket, out: list) -> None:
    """Spawn a DES process that keeps accepting into ``out``."""

    def loop():
        while True:
            child = yield listener.accept()
            out.append(child)

    cluster.env.process(loop(), name="accept-loop")


def establish_clients(
    cluster: Cluster,
    server_node: Host,
    proc: Optional[SimProcess],
    port: int,
    n_clients: int,
    settle: float = 1.0,
) -> tuple[TCPSocket, list[TCPSocket], list[TCPSocket]]:
    """Create ``n_clients`` client hosts, connect each to a listener on
    ``server_node``/``port`` through the broadcast router, and run the
    simulation until all handshakes complete.

    Returns (listener, server_children, client_sockets).
    """
    listener = server_node.stack.tcp_socket(proc)
    listener.bind(port, ip=server_node.public_ip)
    listener.listen()
    children: list[TCPSocket] = []
    accept_all(cluster, listener, children)

    client_socks: list[TCPSocket] = []
    events = []
    for _ in range(n_clients):
        client = cluster.add_client()
        csock = client.stack.tcp_socket()
        events.append(csock.connect(Endpoint(cluster.public_ip, port)))
        client_socks.append(csock)

    run_for(cluster, settle)
    pending = [e for e in events if not e.triggered]
    if pending or len(children) != n_clients:
        raise RuntimeError(
            f"handshakes incomplete: {len(children)}/{n_clients} accepted, "
            f"{len(pending)} connects pending after {settle}s"
        )
    return listener, children, client_socks


def connect_local_tcp(
    cluster: Cluster,
    client_host: Host,
    proc: Optional[SimProcess],
    server_host: Host,
    server_proc: Optional[SimProcess],
    port: int,
    settle: float = 0.1,
) -> tuple[TCPSocket, TCPSocket]:
    """Establish one in-cluster TCP connection (e.g. zone server ->
    MySQL).  Returns (client_side_socket, server_side_socket)."""
    listener = server_host.stack.tcp_socket(server_proc)
    listener.bind(port, ip=server_host.local_ip)
    listener.listen()
    children: list[TCPSocket] = []
    accept_all(cluster, listener, children)

    csock = client_host.stack.tcp_socket(proc)
    ev = csock.connect(Endpoint(server_host.local_ip, port))
    run_for(cluster, settle)
    if not ev.triggered or not children:
        raise RuntimeError("local TCP handshake did not complete")
    listener.close()
    return csock, children[0]
