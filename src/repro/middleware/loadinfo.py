"""Load information records and the per-node peer database.

Each conductor maintains an approximation of the overall cluster load
from the latest heartbeats (Section IV): the peer database stores the
most recent :class:`LoadInfo` per node and computes the cluster-wide
average that the transfer/location/selection policies reason about.
Nodes put to sleep by the ``consolidate`` strategy keep heartbeating
with ``asleep`` set; they count towards no average.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net import IPAddr

__all__ = ["LoadInfo", "PeerDatabase"]


@dataclass(frozen=True)
class LoadInfo:
    """One heartbeat's worth of node state."""

    node_name: str
    local_ip: IPAddr
    cpu_percent: float
    nprocs: int
    timestamp: float
    asleep: bool = False

    def age(self, now: float) -> float:
        """Seconds since this heartbeat was taken (0 for a fresh one)."""
        return max(0.0, now - self.timestamp)


class PeerDatabase:
    """Latest-known load of every other node."""

    def __init__(self, stale_timeout: float = 5.0) -> None:
        if stale_timeout <= 0:
            raise ValueError("stale timeout must be positive")
        self.stale_timeout = stale_timeout
        self._peers: dict[IPAddr, LoadInfo] = {}
        #: The peers' addresses sorted by node name; ``None`` after a
        #: membership change until :meth:`peers` rebuilds it.  A
        #: heartbeat from a known peer keeps the order.
        self._order: list[IPAddr] | None = []
        #: ip -> timestamp of the heartbeat it was pruned with.  A pruned
        #: peer's *old* heartbeats may still be in flight; without the
        #: tombstone a late replay would resurrect the dead entry (and a
        #: re-announcing node could then look alternately alive/dead).
        self._pruned: dict[IPAddr, float] = {}
        #: Total peers ever dropped by :meth:`prune_stale` (monotonic;
        #: exported as the ``peers_stale_total`` metric).
        self.stale_total = 0

    def update(self, info: LoadInfo) -> None:
        """Record a heartbeat; ignores stale (older) reorderings.

        A peer pruned earlier is re-admitted only by a heartbeat *newer*
        than the one it was pruned with — a genuine re-announcement —
        which also clears its tombstone; late replays of its pre-prune
        heartbeats are discarded.
        """
        pruned_at = self._pruned.get(info.local_ip)
        if pruned_at is not None:
            if info.timestamp <= pruned_at:
                return
            del self._pruned[info.local_ip]
        current = self._peers.get(info.local_ip)
        if current is None or info.timestamp >= current.timestamp:
            if current is None or current.node_name != info.node_name:
                self._order = None
            self._peers[info.local_ip] = info

    def remove(self, ip: IPAddr) -> None:
        if self._peers.pop(ip, None) is not None:
            self._order = None
        self._pruned.pop(ip, None)

    def clear(self) -> None:
        """Forget every peer (tombstones stay)."""
        self._peers.clear()
        self._order = None

    def prune_stale(self, now: float) -> list[LoadInfo]:
        """Drop peers whose heartbeat lapsed; returns the departed."""
        gone = [
            info
            for info in self._peers.values()
            if now - info.timestamp > self.stale_timeout
        ]
        for info in gone:
            del self._peers[info.local_ip]
            self._pruned[info.local_ip] = info.timestamp
        if gone:
            self._order = None
        self.stale_total += len(gone)
        return gone

    def peers(self) -> list[LoadInfo]:
        """The latest heartbeat of every peer, sorted by node name."""
        order = self._order
        if order is None:
            infos = sorted(self._peers.values(), key=lambda i: i.node_name)
            self._order = [i.local_ip for i in infos]
            return infos
        peers = self._peers
        return [peers[ip] for ip in order]

    def count_stale(self, now: float, window: float) -> int:
        """Peers whose last heartbeat is older than ``window``.

        The planner's staleness guard: such peers are still *known*
        (they have not lapsed past ``stale_timeout`` and been pruned)
        but their load figures are too old to rank as migration
        candidates.
        """
        return sum(not info.age(now) <= window for info in self._peers.values())

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, ip: IPAddr) -> bool:
        return ip in self._peers

    def get(self, ip: IPAddr) -> LoadInfo | None:
        return self._peers.get(ip)

    def cluster_average(self, own_load: float) -> float:
        """Approximated overall cluster load including this node (awake
        peers only)."""
        loads = [
            info.cpu_percent for info in self._peers.values() if not info.asleep
        ]
        loads.append(own_load)
        return sum(loads) / len(loads)
