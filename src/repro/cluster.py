"""Cluster topology builder.

Reproduces the experimental framework of Section VI-A: a dedicated
single-IP-address cluster of DVE server nodes (dual-core, Gigabit
Ethernet public + local interfaces), a broadcast router on the public
side, a switch on the cluster side, and a MySQL database server host on
the local network.  Game clients attach to the router with their own
public addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .des import Cohort, Environment, RngRegistry
from .net import BroadcastRouter, IPAddr, Link, Switch
from .oskern import CostModel, Host

__all__ = ["ClusterConfig", "Cluster", "build_cluster"]


@dataclass
class ClusterConfig:
    """Knobs for the simulated testbed."""

    n_nodes: int = 5
    public_ip: str = "203.0.113.10"
    local_subnet: str = "192.168.0."
    db_host_octet: int = 200
    #: Gigabit Ethernet on both sides, per the paper's testbed.
    public_bandwidth: float = 1e9
    local_bandwidth: float = 1e9
    #: One-way latencies: LAN-scale inside the cluster, larger to clients.
    local_latency: float = 25e-6
    public_latency: float = 60e-6
    client_latency: float = 5e-3
    cores: int = 2
    with_db: bool = True
    master_seed: int = 42
    #: Per-node jiffies boot offsets are drawn from [0, jiffies_spread).
    jiffies_spread: int = 5_000_000
    cost_model: CostModel = field(default_factory=CostModel)
    #: Router class; swap in UnicastRouter for the NAT negative control.
    broadcast: bool = True


class Cluster:
    """The wired-up testbed."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        self.env = Environment()
        self.rng = RngRegistry(cfg.master_seed)
        if cfg.broadcast:
            self.router = BroadcastRouter(self.env)
        else:
            from .net import UnicastRouter

            self.router = UnicastRouter(self.env)
        self.switch = Switch(self.env)
        self.public_ip = IPAddr(cfg.public_ip)
        self.nodes: list[Host] = []
        #: Kernel -> the server node it runs, for O(1) process-host
        #: lookups (a back-reference from the kernel would be a cycle).
        self._node_of_kernel: dict = {}
        self.public_links: list[Link] = []
        self.local_links: dict[str, Link] = {}
        self.clients: list[Host] = []
        self.client_links: dict[IPAddr, Link] = {}
        self.db: Optional[Host] = None

        jiffies_rng = self.rng.stream("jiffies")
        for i in range(cfg.n_nodes):
            name = f"node{i + 1}"
            local_ip = IPAddr(f"{cfg.local_subnet}{i + 1}")
            node = Host(
                self.env,
                name,
                public_ip=self.public_ip,
                local_ip=local_ip,
                cores=cfg.cores,
                jiffies_offset=int(jiffies_rng.integers(0, cfg.jiffies_spread)),
                cost_model=cfg.cost_model,
                local_prefix=cfg.local_subnet,
            )
            pub_link = Link(
                self.env, cfg.public_bandwidth, cfg.public_latency, name=f"{name}-pub"
            )
            self.router.add_server_port(pub_link)
            node.public_iface.connect(pub_link, side=1)
            self.public_links.append(pub_link)

            loc_link = Link(
                self.env, cfg.local_bandwidth, cfg.local_latency, name=f"{name}-loc"
            )
            self.switch.add_port(local_ip, loc_link)
            node.local_iface.connect(loc_link, side=1)
            self.local_links[name] = loc_link
            # transd "is present on all nodes inside the cluster that
            # may be involved in a local socket migration" (Sec. II-B).
            from .core.translation import install_transd

            install_transd(node)
            self.nodes.append(node)
            self._node_of_kernel[node.kernel] = node

        if cfg.with_db:
            db_ip = IPAddr(f"{cfg.local_subnet}{cfg.db_host_octet}")
            self.db = Host(
                self.env,
                "dbserver",
                local_ip=db_ip,
                cores=cfg.cores,
                jiffies_offset=int(jiffies_rng.integers(0, cfg.jiffies_spread)),
                cost_model=cfg.cost_model,
                local_prefix=cfg.local_subnet,
            )
            db_link = Link(
                self.env, cfg.local_bandwidth, cfg.local_latency, name="db-loc"
            )
            self.switch.add_port(db_ip, db_link)
            self.db.local_iface.connect(db_link, side=1)
            self.local_links["dbserver"] = db_link
            from .core.translation import install_transd

            install_transd(self.db)

    # -- lifetime --------------------------------------------------------------
    def close(self) -> None:
        """End this world: close its environment (see
        :meth:`repro.des.Environment.close`), then cut the reference
        cycles between its hosts, links and daemons, so the whole world
        is freed by reference counting once nothing outside holds it.
        Broadcast copies the nodes skipped go on the heap first, so the
        environment counts those still in flight as never processed."""
        for host in self.all_hosts():
            host.stack.ip.deliver_skipped()
        self.env.close()
        for host in self.all_hosts():
            host.close()
        links = [*self.public_links, *self.local_links.values(), *self.client_links.values()]
        for link in links:
            link.close()

    # -- observability -------------------------------------------------------
    def enable_metrics(self) -> list[str]:
        """Turn on the metrics registry and install the per-node
        ``node.<ip>.*`` samplers for every cluster host (server nodes and
        the database host).  Returns the registered metric names.
        Idempotent; clients attached later are not sampled."""
        from .obs.samplers import install_node_samplers

        self.env.enable_metrics()
        return install_node_samplers(self)

    # -- middleware ----------------------------------------------------------
    def install_balancers(self, config=None) -> list:
        """Install a conductor on every server node and return them.

        Convenience wiring used by benches, examples and tests: each
        conductor scans the other nodes' local addresses and resolves
        receivers through :meth:`node_by_local_ip`.  Pass a
        ``ConductorConfig`` to select a strategy
        (``config.strategy="workload-balance-to-average"`` etc.);
        each node deep-shares the same config object, as the per-node
        rng stream is derived from the config seed *and* the node
        address.  Idempotent per node (``install_conductor`` returns an
        existing daemon).
        """
        from .middleware import install_conductor
        from .middleware.conductor import MONITOR_INTERVAL

        # The new conductors' load monitors sample in one cohort.
        scan_ips = [n.local_ip for n in self.nodes]
        monitors = Cohort(self.env, MONITOR_INTERVAL)
        return [
            install_conductor(node, scan_ips, self.node_by_local_ip, config, monitors)
            for node in self.nodes
        ]

    # -- clients ------------------------------------------------------------
    def client_ip(self, index: int) -> IPAddr:
        """Deterministic public address for the index-th client."""
        if index < 0 or index >= 30_000:
            raise ValueError("client index out of range")
        return IPAddr(f"198.51.{100 + index // 200}.{index % 200 + 1}")

    def add_client(self, name: Optional[str] = None, index: Optional[int] = None) -> Host:
        """Create a client host and attach it to the broadcast router."""
        if index is None:
            index = len(self.clients)
        ip = self.client_ip(index)
        cfg = self.config
        client = Host(
            self.env,
            name or f"client{index}",
            public_ip=ip,
            cores=1,
            jiffies_offset=int(self.rng.stream("client-jiffies").integers(0, cfg.jiffies_spread)),
            cost_model=cfg.cost_model,
            local_prefix=cfg.local_subnet,
        )
        link = Link(self.env, cfg.public_bandwidth, cfg.client_latency, name=f"{client.name}-link")
        self.router.add_client_port(ip, link)
        client.public_iface.connect(link, side=1)
        self.clients.append(client)
        self.client_links[ip] = link
        return client

    # -- lookups -------------------------------------------------------------
    def node(self, index: int) -> Host:
        return self.nodes[index]

    def node_by_name(self, name: str) -> Host:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def node_of(self, kernel) -> Optional[Host]:
        """The server node whose kernel is ``kernel`` (``None`` if none)."""
        return self._node_of_kernel.get(kernel)

    def node_by_local_ip(self, ip: IPAddr) -> Host:
        for node in self.nodes:
            if node.local_ip == ip:
                return node
        raise KeyError(str(ip))

    def all_hosts(self) -> list[Host]:
        hosts = list(self.nodes) + list(self.clients)
        if self.db is not None:
            hosts.append(self.db)
        return hosts


def build_cluster(**overrides) -> Cluster:
    """Convenience: build a cluster with config overrides as kwargs."""
    return Cluster(ClusterConfig(**overrides))
