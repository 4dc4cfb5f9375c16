"""The per-node simulated kernel.

Ties together the memory manager, CPU accounting, jiffies clock,
netfilter registry and the TCP/IP stack, and owns the process table.
The migration machinery manipulates these pieces exactly where the
paper's kernel modules would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..des import Environment
from ..net import Interface, IPAddr, PROTO_CTL
from .costs import CostModel
from .jiffies import JiffiesClock
from .netfilter import NetfilterHooks
from .sched import CpuAccounting
from .task import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from ..tcpip.stack import NetworkStack

__all__ = ["Kernel"]


class Kernel:
    """One node's kernel state."""

    def __init__(
        self,
        env: Environment,
        node_name: str,
        cores: int = 2,
        jiffies_offset: int = 0,
        cost_model: Optional[CostModel] = None,
        local_prefix: str = "192.168.",
    ) -> None:
        self.env = env
        self.node_name = node_name
        self.jiffies = JiffiesClock(env, boot_offset=jiffies_offset)
        self.netfilter = NetfilterHooks()
        self.cpu = CpuAccounting(env, cores=cores)
        self.costs = cost_model or CostModel()
        self.local_prefix = local_prefix
        self.processes: dict[int, SimProcess] = {}
        self.public_iface: Optional[Interface] = None
        self.local_iface: Optional[Interface] = None
        #: Route cache: destination -> egress interface.  IPAddr is
        #: frozen/hashable, so the per-packet prefix string match in
        #: :meth:`route` collapses to one dict hit after the first
        #: lookup.  Invalidated whenever an interface is attached.
        self._route_cache: dict[IPAddr, Interface] = {}
        #: Set by ControlPlane when one is installed on this host.
        self.control = None
        # Imported here to keep the package layering acyclic
        # (oskern -> tcpip is the only downward edge).
        from ..tcpip.stack import NetworkStack

        self.stack: "NetworkStack" = NetworkStack(self)
        self.netfilter.before_local_in = self.stack.ip.deliver_skipped

    # -- interfaces / routing ------------------------------------------------
    def attach_public(self, iface: Interface) -> None:
        if self.public_iface is not None:
            raise RuntimeError("public interface already attached")
        self.public_iface = iface
        self._attach_rx(iface)

    def attach_local(self, iface: Interface) -> None:
        if self.local_iface is not None:
            raise RuntimeError("local interface already attached")
        self.local_iface = iface
        self._attach_rx(iface)

    def _attach_rx(self, iface: Interface) -> None:
        ip = self.stack.ip
        iface.set_rx_handler(self._rx, ip.could_take, ip.not_taken)
        ip.rx_ifaces.append(iface)
        self._route_cache.clear()

    def _rx(self, packet, iface: Interface) -> None:
        if packet.proto == PROTO_CTL:
            if self.control is not None:
                self.control.dispatch(packet)
            return
        self.stack.ip.ip_rcv(packet, iface)

    def route(self, dst_ip: IPAddr) -> Interface:
        """Pick the egress interface for a destination (cached)."""
        iface = self._route_cache.get(dst_ip)
        if iface is not None:
            return iface
        if self.local_iface is not None and dst_ip.value.startswith(self.local_prefix):
            iface = self.local_iface
        elif self.public_iface is not None:
            iface = self.public_iface
        elif self.local_iface is not None:
            iface = self.local_iface
        else:
            raise RuntimeError(f"{self.node_name}: no interface to reach {dst_ip}")
        self._route_cache[dst_ip] = iface
        return iface

    @property
    def local_ip(self) -> IPAddr:
        if self.local_iface is None:
            raise RuntimeError(f"{self.node_name} has no local interface")
        return self.local_iface.ip

    @property
    def public_ip(self) -> IPAddr:
        if self.public_iface is None:
            raise RuntimeError(f"{self.node_name} has no public interface")
        return self.public_iface.ip

    def close(self) -> None:
        """Cut this kernel's reference cycles once its world has ended: the
        interfaces stop delivering to it, every process's files and the
        process table are dropped, the netfilter hooks are closed and so
        is the network stack."""
        for iface in (self.public_iface, self.local_iface):
            if iface is not None:
                iface.set_rx_handler(None)
        for proc in self.processes.values():
            proc.fdtable.clear()
        self.processes.clear()
        self.netfilter.close()
        self.stack.close()

    # -- process management -----------------------------------------------------
    def spawn_process(self, name: str, nthreads: int = 1) -> SimProcess:
        proc = SimProcess(self, name, nthreads=nthreads)
        self.processes[proc.pid] = proc
        return proc

    def adopt_process(self, proc: SimProcess) -> None:
        """Take ownership of a restarted (migrated-in) process."""
        proc.kernel = self
        self.processes[proc.pid] = proc
        self.cpu.adopt(proc)

    def remove_process(self, proc: SimProcess) -> None:
        """Drop a process from this kernel (exit or migration away)."""
        self.processes.pop(proc.pid, None)
        self.cpu.remove(proc)

    def process_by_pid(self, pid: int) -> SimProcess:
        try:
            return self.processes[pid]
        except KeyError:
            raise ValueError(f"no such pid {pid} on {self.node_name}") from None

    def __repr__(self) -> str:
        return f"<Kernel {self.node_name} procs={len(self.processes)}>"
