"""Zone-server processes (Section VI-C).

Each zone server manages one partition of the virtual space.  It runs
the *real-time loop* — continuously processing client events, governing
interactions and responding with state updates at ~20 messages/second of
256 bytes — maintains client TCP connections and a MySQL session to the
local database server, and its CPU consumption grows proportionally with
the number of clients present in the zone.

Two traffic fidelities:

- ``packet`` — the full 20 Hz update traffic on every client connection;
  used where the update cadence itself is measured
  (``bench_ext_interactivity``; Fig. 5b/5c build no ``ZoneServer``);
- ``fluid`` — client-update traffic is suppressed and only its CPU cost
  is modelled, while DB queries and memory dirtying stay real; used by
  the 15-minute load-balancing runs (Fig. 5d/e/f), where packet-level
  update traffic for 10,000 clients would add nothing to the measured
  quantity (per-node CPU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import Cluster
from ..des import Cohort
from ..net import Endpoint
from ..oskern.node import Host
from ..tcpip import TCPSocket
from .mysql import MYSQL_PORT, MySQLServer
from .space import Zone

__all__ = ["ZoneServerConfig", "ZoneServer"]

#: The fluid real-time loop's period: one CPU-only update batch a second.
FLUID_TICK = 1.0


@dataclass(frozen=True)
class ZoneServerConfig:
    """Zone-server knobs, calibrated to the Section VI-C description."""

    #: Real-time loop rate (Quake III default) and update size [22,23].
    update_hz: float = 20.0
    update_bytes: int = 256
    #: Process memory footprint (pages).
    memory_pages: int = 300
    #: Pages dirtied per second by the real-time loop.
    dirty_pages_per_second: int = 60
    #: CPU demand (fraction of a core): base + per-client.
    cpu_base: float = 0.048
    cpu_per_client: float = 0.0003
    #: Interval between MySQL world-state updates (seconds).
    db_query_interval: float = 5.0
    db_query_bytes: int = 180
    #: Number of real client TCP connections to hold.
    n_client_conns: int = 4
    #: "packet" (full update traffic) or "fluid" (CPU-only updates).
    traffic_mode: str = "fluid"
    #: Base TCP port; zone servers listen on port_base + zone_id.
    port_base: int = 30000


class ZoneServer:
    """One migratable zone-server process."""

    def __init__(
        self,
        cluster: Cluster,
        node: Host,
        zone: Zone,
        db: Optional[MySQLServer] = None,
        config: Optional[ZoneServerConfig] = None,
    ) -> None:
        if config and config.traffic_mode not in ("fluid", "packet"):
            raise ValueError(f"unknown traffic mode {config.traffic_mode!r}")
        self.cluster = cluster
        self.env = cluster.env
        self.zone = zone
        self.config = config or ZoneServerConfig()
        self.proc = node.kernel.spawn_process(f"zone_serv{zone.zone_id}")
        self._state = self.proc.address_space.mmap(
            self.config.memory_pages, tag="world-state"
        )
        self.port = self.config.port_base + zone.zone_id
        self.listener: Optional[TCPSocket] = None
        self.client_conns: list[TCPSocket] = []
        self.db_session: Optional[TCPSocket] = None
        self.population = 0
        self.updates_sent = 0
        self.db_replies = 0
        self._db = db
        self._started = False

    # -- connection setup ----------------------------------------------------
    def connect_clients(self, settle: float = 0.4) -> None:
        """Establish the configured number of real client connections
        through the broadcast router."""
        from ..testing import establish_clients

        node = self.current_node()
        self.listener, children, _ = establish_clients(
            self.cluster, node, self.proc, self.port,
            self.config.n_client_conns, settle=settle,
        )
        self.client_conns = children

    def connect_db(self, settle: float = 0.1) -> None:
        """Open the MySQL session on the local network."""
        if self._db is None:
            raise RuntimeError("no database server configured")
        sock = self.current_node().stack.tcp_socket(self.proc)
        ev = sock.connect(Endpoint(self._db.host.local_ip, MYSQL_PORT))
        self.env.run(until=self.env.now + settle)
        if not ev.triggered:
            raise RuntimeError(f"zone_serv{self.zone.zone_id}: DB handshake incomplete")
        self.db_session = sock

    @property
    def state_area(self):
        """The world-state VMA (for workload drivers that dirty it)."""
        return self._state

    def current_node(self) -> Host:
        """The host this process currently runs on (changes on migration)."""
        node = self.cluster.node_of(self.proc.kernel)
        if node is None:
            raise RuntimeError(f"{self.proc} not on any cluster node")
        return node

    # -- load model ---------------------------------------------------------------
    def set_population(self, n_clients: int) -> None:
        """Clients currently in this zone drive the CPU demand."""
        if n_clients < 0:
            raise ValueError("population must be non-negative")
        self.population = n_clients
        cfg = self.config
        demand = cfg.cpu_base + cfg.cpu_per_client * n_clients
        self.proc.kernel.cpu.set_demand(self.proc, demand)

    @property
    def cpu_demand(self) -> float:
        return self.proc.cpu_demand

    # -- the real-time loop ----------------------------------------------------------
    def start(self, cohort: Optional[Cohort] = None) -> Optional[Cohort]:
        """Start the real-time loop (and the DB loop, with a MySQL
        session).  A fluid loop joins ``cohort`` if it still takes
        members, else a cohort of its own, and that cohort is returned:
        servers started one after another at one instant share it."""
        if self._started:
            raise RuntimeError("zone server already started")
        self._started = True
        self.set_population(self.population)
        name = f"zs{self.zone.zone_id}-rt"
        if self.config.traffic_mode == "packet":
            self.env.process(self._packet_loop(), name=name)
            cohort = None
        else:
            if cohort is None or not cohort.joinable:
                cohort = Cohort(self.env, FLUID_TICK)
            cohort.join(self._fluid_loop(cohort), name=name)
        if self.db_session is not None:
            self.env.process(self._db_loop(), name=f"zs{self.zone.zone_id}-db")
        return cohort

    def _dirty(self, pages: int) -> None:
        pages = min(pages, self._state.npages)
        self.proc.address_space.write_range(self._state, count=pages)

    def saturation_factor(self) -> float:
        """How much the node's CPU oversubscription stretches the
        real-time loop.  This is the paper's motivating failure mode:
        on an overloaded node the loop cannot hold its 20 Hz rate, so
        client updates arrive late and interactivity degrades."""
        cpu = self.proc.kernel.cpu
        return max(1.0, cpu.total_demand() / cpu.cores)

    def _packet_loop(self):
        cfg = self.config
        interval = 1.0 / cfg.update_hz
        while True:
            yield from self.proc.check_frozen()
            yield self.env.timeout(interval * self.saturation_factor())
            yield from self.proc.check_frozen()
            self._dirty(max(1, int(cfg.dirty_pages_per_second * interval)))
            for conn in self.client_conns:
                conn.send(("update", self.zone.zone_id), cfg.update_bytes)
                self.updates_sent += 1

    def _fluid_loop(self, cohort: Cohort):
        cfg = self.config
        while True:
            yield from self.proc.check_frozen()
            yield cohort.tick()
            yield from self.proc.check_frozen()
            self._dirty(cfg.dirty_pages_per_second)

    def _db_loop(self):
        cfg = self.config
        while True:
            yield from self.proc.check_frozen()
            yield self.env.timeout(cfg.db_query_interval)
            yield from self.proc.check_frozen()
            assert self.db_session is not None
            self.db_session.send(("update-world", self.zone.zone_id), cfg.db_query_bytes)
            skb = yield self.db_session.recv()
            if skb.size > 0:
                self.db_replies += 1
