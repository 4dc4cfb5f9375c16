"""Socket subtraction and restoration (Section V-C).

*Subtracting* a TCP socket means: unhash it from the ``ehash``/``bhash``
tables, clear the retransmission timer, and dump the main socket
structure plus the write, receive and out-of-order queues.  Thanks to
signal-based checkpointing the backlog and prequeue are empty at freeze
time (the strategies assert this); the kernel-initiated ablation must
dump them too.

*Restoring* allocates a fresh socket structure on the destination,
applies the (merged) state, rebuilds the queues, **adjusts every
jiffies-derived timestamp by the source/destination delta**, rehashes
into ``ehash``/``bhash`` and re-attaches the socket to the right file
descriptor.

Incremental tracking (:class:`SocketTracker`) snapshots each connection
during the precopy phase and emits per-round deltas; the destination
merges them in :class:`SocketStaging` so the final freeze round only
carries what changed since the previous loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..net import Endpoint, IPAddr, PROTO_TCP, PROTO_UDP
from ..oskern import CostModel, SimProcess
from ..oskern.fdtable import SocketFile
from ..tcpip import TCPSocket, TCPState, UDPSocket
from ..tcpip.buffers import SKBuff
from ..tcpip.dstcache import DstCacheEntry
from ..tcpip.seq import seq_sub

__all__ = [
    "SocketRecord",
    "SocketTracker",
    "SocketStaging",
    "subtract_tcp_socket",
    "subtract_udp_socket",
    "disable_socket",
    "restore_sockets",
    "SCALAR_CHANGE_BYTES",
]

#: Wire size of a changed-scalar block inside an incremental record.
SCALAR_CHANGE_BYTES = 160

TCP_SCALARS = (
    "state",
    "iss",
    "irs",
    "snd_una",
    "snd_nxt",
    "rcv_nxt",
    "snd_wnd",
    "rcv_wnd",
    "cwnd",
    "ssthresh",
    "srtt",
    "rttvar",
    "rto",
    "ts_offset",
    "ts_recent",
    "ts_recent_stamp",
    "fin_received",
    "prequeue_enabled",
    "accept_backlog",
    "orig_local_ip",
)

TCP_QUEUES = ("write", "receive", "ooo")


@dataclass
class SocketRecord:
    """One (full or incremental) socket checkpoint on the wire."""

    proto: str
    flow: tuple  # (local Endpoint, remote Endpoint|None)
    fd: Optional[int]
    listening: bool = False
    #: None in a delta record whose scalars did not change.
    scalars: Optional[dict] = None
    #: queue name -> list of skb records added since the last round.
    skbs_add: dict[str, list[dict]] = field(default_factory=dict)
    #: queue name -> list of skb_ids gone since the last round.
    skbs_remove: dict[str, list[int]] = field(default_factory=dict)
    #: True for a full dump (replaces all staged state for the flow).
    full: bool = True
    #: For un-accepted children: local port of the owning listener.
    parent_port: Optional[int] = None
    nbytes: int = 0

    @property
    def flow_id(self) -> tuple:
        return (self.proto, self.flow[0], self.flow[1])


def _tcp_scalars(sock: TCPSocket) -> dict:
    return {name: getattr(sock, name) for name in TCP_SCALARS}


def _queue_skbs(sock: TCPSocket, name: str):
    if name == "write":
        return list(sock.write_queue)
    if name == "receive":
        return list(sock.receive_queue)
    if name == "ooo":
        return list(sock.ooo_queue)
    raise ValueError(name)


def _skb_record(skb: SKBuff) -> dict:
    rec = skb.migrate_record()
    rec["skb_id"] = skb.skb_id
    return rec


def _skb_bytes(recs: list[dict], costs: CostModel) -> int:
    return sum(r["size"] + costs.skb_meta_bytes for r in recs)


# ----------------------------------------------------------------- subtract
def subtract_tcp_socket(
    sock: TCPSocket,
    fd: Optional[int],
    costs: CostModel,
    include_user_queues: bool = False,
) -> SocketRecord:
    """Full dump of one TCP socket.

    ``include_user_queues`` dumps backlog+prequeue contents as raw
    packets — only needed by the kernel-initiated-checkpoint ablation;
    with signal-based checkpointing both queues are empty.
    """
    rec = SocketRecord(
        proto=PROTO_TCP,
        flow=(sock.local, sock.remote),
        fd=fd,
        listening=sock.state == TCPState.LISTEN,
        scalars=_tcp_scalars(sock),
        full=True,
    )
    nbytes = costs.tcp_state_bytes
    for qname in TCP_QUEUES:
        recs = [_skb_record(s) for s in _queue_skbs(sock, qname)]
        rec.skbs_add[qname] = recs
        nbytes += _skb_bytes(recs, costs)
    if include_user_queues:
        raw = [("backlog", p) for p in sock.backlog] + [
            ("prequeue", p) for p in sock.prequeue
        ]
        rec.scalars["_user_queues"] = raw
        nbytes += sum(p.size + costs.skb_meta_bytes for _q, p in raw)
    rec.nbytes = nbytes
    return rec


def subtract_udp_socket(
    sock: UDPSocket, fd: Optional[int], costs: CostModel
) -> SocketRecord:
    """Full dump of one UDP socket: main structure + receive queue."""
    rec = SocketRecord(
        proto=PROTO_UDP,
        flow=(sock.local, sock.remote),
        fd=fd,
        scalars={"bound": sock.hashed, "orig_local_ip": sock.orig_local_ip},
        full=True,
    )
    recs = [_skb_record(s) for s in sock.receive_queue]
    rec.skbs_add["receive"] = recs
    rec.nbytes = costs.udp_state_bytes + _skb_bytes(recs, costs)
    return rec


def reenable_socket(sock) -> None:
    """Undo :func:`disable_socket` on the *source* node (rollback path).

    Used when a migration aborts after sockets were already subtracted:
    the socket is rehashed into its original stack's tables, its
    retransmission timer restarts, and traffic resumes as if the freeze
    had merely been a long scheduling stall.
    """
    if isinstance(sock, TCPSocket):
        if sock.state == TCPState.LISTEN:
            if sock.stack.tables.bhash_lookup(sock.local.ip, sock.local.port) is not sock:
                sock.stack.tables.bhash_insert(sock.local.ip, sock.local.port, sock)
        elif sock.state != TCPState.CLOSED and not sock.hashed:
            sock.stack.tables.ehash_insert(sock.flow_key, sock)
            sock.hashed = True
        sock.migrating = False
        if len(sock.write_queue) > 0 and not sock.rto_armed:
            sock._arm_rto()
    elif isinstance(sock, UDPSocket):
        if not sock.hashed and sock.local is not None:
            sock.stack.tables.udp_insert(sock.local.ip, sock.local.port, sock)
            sock.hashed = True
        sock.migrating = False
    else:
        raise TypeError(f"not a socket: {sock!r}")


def disable_socket(sock) -> None:
    """Unhash from the lookup tables and clear timers (Section V-C)."""
    if isinstance(sock, TCPSocket):
        if sock.state == TCPState.LISTEN:
            sock.stack.tables.bhash_remove(sock.local.ip, sock.local.port)
        elif sock.hashed:
            sock.stack.tables.ehash_remove(sock.flow_key)
            sock.hashed = False
        sock._stop_rto()
        sock.migrating = True
    elif isinstance(sock, UDPSocket):
        if sock.hashed:
            sock.stack.tables.udp_remove(sock.local.ip, sock.local.port)
            sock.hashed = False
        sock.migrating = True
    else:
        raise TypeError(f"not a socket: {sock!r}")


# ----------------------------------------------------------------- tracking
class SocketTracker:
    """Per-connection tracking structures for incremental migration.

    The first call per socket produces a full record; subsequent calls
    emit deltas (changed scalars, added/removed buffers).  Sockets that
    are locked or in fast-path receive are *skipped* during precopy
    (returning ``None``), leaving them for a later round or the freeze
    phase, exactly as Section V-C.1 describes.
    """

    def __init__(self, costs: CostModel) -> None:
        self.costs = costs
        #: id(sock) -> (scalars, {queue: {skb_id}})
        self._snapshots: dict[int, tuple[dict, dict[str, set[int]]]] = {}

    def delta(self, sock, fd: Optional[int], during_precopy: bool = True) -> Optional[SocketRecord]:
        if during_precopy and isinstance(sock, TCPSocket):
            if sock.locked or sock.prequeue:
                return None  # skipped: checkpoint left for a later round

        key = id(sock)
        snap = self._snapshots.get(key)
        is_tcp = isinstance(sock, TCPSocket)
        if snap is None:
            rec = (
                subtract_tcp_socket(sock, fd, self.costs)
                if is_tcp
                else subtract_udp_socket(sock, fd, self.costs)
            )
            # The full dump already walked every queue and scalar once;
            # the snapshot is derived from the record instead of walking
            # the socket a second time.
            self._snapshots[key] = (
                dict(rec.scalars),
                {q: {r["skb_id"] for r in recs} for q, recs in rec.skbs_add.items()},
            )
            return rec

        old_scalars, old_queues = snap
        if is_tcp:
            scalars = _tcp_scalars(sock)
            queues = {q: _queue_skbs(sock, q) for q in TCP_QUEUES}
            delta_base = self.costs.tcp_delta_bytes
        else:
            scalars = {"bound": sock.hashed, "orig_local_ip": sock.orig_local_ip}
            queues = {"receive": list(sock.receive_queue)}
            delta_base = self.costs.udp_delta_bytes

        rec = SocketRecord(
            proto=PROTO_TCP if is_tcp else PROTO_UDP,
            flow=(sock.local, sock.remote),
            fd=fd,
            listening=is_tcp and sock.state == TCPState.LISTEN,
            full=False,
        )
        nbytes = delta_base
        if scalars != old_scalars:
            # A copy goes on the wire; the snapshot keeps the original.
            rec.scalars = dict(scalars)
            nbytes += SCALAR_CHANGE_BYTES
        new_queues: dict[str, set[int]] = {}
        for qname, skbs in queues.items():
            old_ids = old_queues[qname]
            current_ids = {s.skb_id for s in skbs}
            new_queues[qname] = current_ids
            if current_ids == old_ids:
                continue
            added = [_skb_record(s) for s in skbs if s.skb_id not in old_ids]
            removed = sorted(old_ids - current_ids)
            if added:
                rec.skbs_add[qname] = added
                nbytes += _skb_bytes(added, self.costs)
            if removed:
                rec.skbs_remove[qname] = removed
                nbytes += 8 * len(removed)
        rec.nbytes = nbytes
        self._snapshots[key] = (scalars, new_queues)
        return rec

    def subtract_cost(self, sock, full: bool) -> float:
        if isinstance(sock, TCPSocket):
            return self.costs.tcp_subtract_cost if full else self.costs.tcp_incremental_cost
        return self.costs.udp_subtract_cost

    @property
    def tracked_count(self) -> int:
        return len(self._snapshots)


# ------------------------------------------------------------------ staging
class _MergedSocket:
    """Destination-side accumulated state for one flow."""

    def __init__(self, record: SocketRecord) -> None:
        self.proto = record.proto
        self.flow = record.flow
        self.fd = record.fd
        self.listening = record.listening
        self.parent_port = record.parent_port
        self.scalars: dict = {}
        self.queues: dict[str, dict[int, dict]] = {}
        self.apply(record)

    def apply(self, record: SocketRecord) -> None:
        if record.full:
            self.scalars = {}
            self.queues = {}
        if record.scalars is not None:
            self.scalars.update(record.scalars)
        self.fd = record.fd if record.fd is not None else self.fd
        self.listening = record.listening
        self.parent_port = record.parent_port or self.parent_port
        for qname, recs in record.skbs_add.items():
            bucket = self.queues.setdefault(qname, {})
            for r in recs:
                bucket[r["skb_id"]] = r
        for qname, ids in record.skbs_remove.items():
            bucket = self.queues.setdefault(qname, {})
            for skb_id in ids:
                bucket.pop(skb_id, None)


class SocketStaging:
    """Merges per-round socket records on the destination node."""

    def __init__(self) -> None:
        self._merged: dict[tuple, _MergedSocket] = {}

    def apply(self, record: SocketRecord) -> None:
        merged = self._merged.get(record.flow_id)
        if merged is None:
            if not record.full and record.scalars is None:
                raise ValueError(
                    f"first record for {record.flow_id} must be full or carry scalars"
                )
            self._merged[record.flow_id] = _MergedSocket(record)
        else:
            merged.apply(record)

    def apply_all(self, records: list[SocketRecord]) -> None:
        for rec in records:
            self.apply(rec)

    def flows(self) -> list[tuple]:
        return list(self._merged)

    def merged(self, flow_id: tuple) -> _MergedSocket:
        return self._merged[flow_id]

    def __len__(self) -> int:
        return len(self._merged)


# ------------------------------------------------------------------ restore
def _restore_skb(rec: dict, jiffies_delta: int) -> SKBuff:
    clean = {k: v for k, v in rec.items() if k != "skb_id"}
    return SKBuff.from_record(clean, jiffies_delta=jiffies_delta)


def restore_sockets(
    stack,
    proc: SimProcess,
    staging: SocketStaging,
    jiffies_delta: int,
    local_ip_rewrite: Optional[dict[IPAddr, IPAddr]] = None,
    originals: Optional[dict[tuple, Any]] = None,
) -> list:
    """Recreate all staged sockets on the destination stack.

    ``jiffies_delta`` = destination jiffies at restore − source jiffies
    at checkpoint; every raw-jiffies field shifts by +delta and each
    socket's ``ts_offset`` shifts by −delta so the TCP timestamp clock
    the peer observes stays continuous (Section V-C.1).

    ``local_ip_rewrite`` maps the source node's cluster address to the
    destination's for in-cluster flows (Section III-C).

    ``originals`` maps flow ids to the source-side socket objects.  When
    given, state is restored *into* those objects so that application
    execution context (blocked ``recv`` calls, held references) resumes
    against the restored socket — the analog of BLCR re-attaching the
    restored socket to the same file descriptor.  All restored *state*
    still comes from the staged wire records.
    """
    rewrite = local_ip_rewrite or {}
    originals = originals or {}
    restored: list = []
    listeners_by_port: dict[int, TCPSocket] = {}
    pending_children: list[tuple[TCPSocket, int]] = []

    for flow_id in staging.flows():
        merged = staging.merged(flow_id)
        target = originals.get(flow_id)
        local, remote = merged.flow
        rewritten_from: Optional[IPAddr] = None
        if local is not None and local.ip in rewrite:
            rewritten_from = local.ip
            local = Endpoint(rewrite[local.ip], local.port)
        if merged.proto == PROTO_TCP:
            sock = _restore_tcp(stack, proc, merged, local, remote, jiffies_delta, target)
            if sock.state == TCPState.LISTEN:
                listeners_by_port[sock.local.port] = sock
            if merged.parent_port is not None:
                pending_children.append((sock, merged.parent_port))
        else:
            sock = _restore_udp(stack, proc, merged, local, remote, jiffies_delta, target)
        if rewritten_from is not None and sock.orig_local_ip is None:
            sock.orig_local_ip = rewritten_from
        if merged.fd is not None and merged.fd >= 0:
            proc.fdtable.install(SocketFile(socket=sock), fd=merged.fd)
        restored.append(sock)

    # Re-link un-accepted children to their restored listener.
    for child, parent_port in pending_children:
        listener = listeners_by_port.get(parent_port)
        if listener is not None:
            child.parent = listener
            if child.state == TCPState.ESTABLISHED:
                listener._deliver_child(child)
    return restored


def _restore_tcp(
    stack,
    proc,
    merged: _MergedSocket,
    local,
    remote,
    jiffies_delta: int,
    target: Optional[TCPSocket] = None,
) -> TCPSocket:
    if target is not None:
        sock = target
        sock.stack = stack
        sock.proc = proc
        sock.write_queue.clear()
        # Keep blocked readers (the frozen threads' re-entered recv
        # calls) but drop any stale buffered data: the wire records are
        # authoritative.
        sock.receive_queue.clear()
        sock.ooo_queue.clear()
        sock.backlog.clear()
        sock.prequeue.clear()
        # The restored execution context is in userspace: no syscall
        # holds the user lock on the destination.
        sock.locked = False
    else:
        sock = TCPSocket(stack, proc=proc)
    sock.local = local
    sock.remote = remote
    scalars = dict(merged.scalars)
    user_queues = scalars.pop("_user_queues", None)
    for name in TCP_SCALARS:
        if name in scalars:
            setattr(sock, name, scalars[name])
    # Timestamp adjustment: keep (jiffies + ts_offset) continuous.
    sock.ts_offset -= jiffies_delta

    for rec in sorted(
        merged.queues.get("write", {}).values(),
        key=lambda r: seq_sub(r["seq"], scalars.get("snd_una", sock.snd_una)),
    ):
        sock.write_queue.append(_restore_skb(rec, jiffies_delta))
    for rec in sorted(merged.queues.get("receive", {}).values(), key=lambda r: r["skb_id"]):
        sock.receive_queue.push(_restore_skb(rec, jiffies_delta))
    for rec in merged.queues.get("ooo", {}).values():
        sock.ooo_queue.insert(_restore_skb(rec, jiffies_delta))

    if remote is not None:
        sock.dst_entry = DstCacheEntry(remote.ip)

    # Rehash and restart timers.
    if sock.state == TCPState.LISTEN:
        stack.tables.bhash_insert(sock.local.ip, sock.local.port, sock)
    elif sock.state == TCPState.CLOSED:
        pass  # a dead socket migrates as an fd slot only
    else:
        stack.tables.ehash_insert(sock.flow_key, sock)
        sock.hashed = True
        if len(sock.write_queue) > 0 or sock.state in (
            TCPState.SYN_RCVD,
            TCPState.FIN_WAIT_1,
            TCPState.LAST_ACK,
        ):
            sock._arm_rto()
    sock.migrating = False
    # Kernel-initiated ablation: replay dumped backlog/prequeue packets
    # through normal receive processing now that the socket is rehashed.
    if user_queues:
        for _qname, pkt in user_queues:
            sock.segment_arrives(pkt)
    return sock


def _restore_udp(
    stack,
    proc,
    merged: _MergedSocket,
    local,
    remote,
    jiffies_delta: int,
    target: Optional[UDPSocket] = None,
) -> UDPSocket:
    if target is not None:
        sock = target
        sock.stack = stack
        sock.proc = proc
        sock.receive_queue.clear()
    else:
        sock = UDPSocket(stack, proc=proc)
    sock.local = local
    sock.remote = remote
    sock.orig_local_ip = merged.scalars.get("orig_local_ip")
    for rec in sorted(merged.queues.get("receive", {}).values(), key=lambda r: r["skb_id"]):
        sock.receive_queue.push(_restore_skb(rec, jiffies_delta))
    if remote is not None:
        sock.dst_entry = DstCacheEntry(remote.ip)
    if merged.scalars.get("bound", False) and local is not None:
        stack.tables.udp_insert(local.ip, local.port, sock)
        sock.hashed = True
    sock.migrating = False
    return sock
