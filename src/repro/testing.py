"""Shared fixtures and helpers for tests, examples and benchmarks.

These are *simulation-building* helpers, not assertions: establishing
client connections through the broadcast router, draining accept loops,
and :class:`MigrationWorld`, the one builder of a one-shot migration run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cluster import Cluster, ClusterConfig
from .core import LiveMigrationConfig, MigrationReport, migrate_process
from .net import Endpoint
from .oskern import Host, SimProcess
from .tcpip import TCPSocket

__all__ = [
    "accept_all",
    "establish_clients",
    "connect_local_tcp",
    "run_for",
    "CLIENT_UPDATES",
    "WorldSpec",
    "MigrationWorld",
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


# -- the one-shot migration world --------------------------------------------------
#: The Fig. 5b zone server's writer (Section VI-D): every 1/20 s it writes
#: 30 pages and sends each client one 256 B update, pausing while frozen.
CLIENT_UPDATES = "client-updates"


@dataclass(frozen=True)
class WorldSpec:
    """What a :class:`MigrationWorld` builds.  ``prewrite`` holds
    ``(offset, count)`` ranges; ``writer`` is ``None``, a ``HotSet``, a
    ``RotatingWindow`` or :data:`CLIENT_UPDATES`."""

    name: str = "srv0"
    seed: int = 42
    pages: int = 512
    prewrite: tuple[tuple[int, int], ...] = ()
    writer: object = None
    clients: int = 0
    peer: bool = False
    warmup: float = 0.2
    trace: bool = False


class MigrationWorld:
    """One process with ``spec.pages`` pages on the first of two nodes,
    built on construction in the one order that keeps ISNs, pids and
    event keys: cluster, tracer, process, mapping, prewrites, clients,
    peer (a MySQL session), writer.  Then :meth:`warm`, :meth:`migrate`,
    :meth:`check` and :meth:`close`."""

    def __init__(self, spec: WorldSpec) -> None:
        self.spec, self.report = spec, None
        cluster = Cluster(ClusterConfig(n_nodes=2, with_db=spec.peer, master_seed=spec.seed))
        self.cluster, env = cluster, cluster.env
        self.tracer = env.enable_tracing() if spec.trace else None
        self.source, self.dest = cluster.nodes
        self.proc = proc = self.source.kernel.spawn_process(spec.name)
        self.area = proc.address_space.mmap(spec.pages, tag="world-state")
        for offset, count in spec.prewrite:
            proc.address_space.write_range(self.area, count, offset)
        #: The server side of each client connection.
        self.client_socks: list[TCPSocket] = []
        if spec.clients:
            _, self.client_socks, _ = establish_clients(
                cluster, self.source, proc, 27960, spec.clients, settle=2.0
            )
        if spec.peer:  # the cluster already runs transd on every local host
            mysqld = cluster.db.kernel.spawn_process("mysqld")
            connect_local_tcp(cluster, self.source, proc, cluster.db, mysqld, 3306)
        #: The writer's live stats (``None`` for no writer or the update loop).
        self.writer_stats: Optional[dict] = None
        if spec.writer == CLIENT_UPDATES:
            env.process(self._client_updates())
        elif spec.writer is not None:
            from .scenarios.workload import HotSet, start_dirtier, start_rotating_dirtier

            start = start_dirtier if isinstance(spec.writer, HotSet) else start_rotating_dirtier
            self.writer_stats = start(env, proc, self.area, spec.writer)

    def _client_updates(self):
        proc, env = self.proc, self.cluster.env
        while True:
            yield from proc.check_frozen()
            yield env.timeout(1.0 / 20.0)
            yield from proc.check_frozen()
            proc.address_space.write_range(self.area, count=30)
            for sock in self.client_socks:
                sock.send("update", 256)

    def warm(self) -> None:
        run_for(self.cluster, self.spec.warmup)

    def migrate(self, config: LiveMigrationConfig) -> MigrationReport:
        """Migrate the process to the second node; run until that ends."""
        ev = migrate_process(self.source, self.dest, self.proc, config)
        self.report = self.cluster.env.run(until=ev)
        return self.report

    def check(self) -> list[str]:
        """Run 0.5 s more, then list what is wrong; empty when the
        migration succeeded, the process runs on the destination with
        every page resident and the writer never failed."""
        run_for(self.cluster, 0.5)
        report, space, stats = self.report, self.proc.address_space, self.writer_stats
        problems = []
        if report is None or not report.success:
            problems.append(f"migration failed: {report.error}" if report else "no migration ran")
        if self.proc.kernel is not self.dest.kernel:
            problems.append(f"{self.proc.name} is not on {self.dest.name}")
        if space.has_absent:
            problems.append(f"{space.absent_count} pages still absent")
        if stats and stats["errors"]:
            problems.append(f"the writer failed {stats['errors']} times")
        return problems

    def close(self) -> None:
        self.cluster.close()
