"""The three socket-migration strategies of Section III-C.

*Iterative* (the baseline from the authors' earlier work [15]): walk the
FD table and migrate each socket one-by-one — a capture-enable
round-trip, a subtract, and a transfer per socket.  Network bandwidth is
under-utilized because short bursts of computation and transmission
alternate, and every socket pays the capture synchronization.

*Collective*: the FD-table walk is scattered into three phases — (1)
capture details of **all** connections are collected and shipped in one
request; (2) state of **all** connections is subtracted into one unified
buffer and transferred in one go; (3) BLCR's regular FD iteration runs,
excluding the already-processed sockets.

*Incremental collective*: additionally, per-connection tracking
structures subtract socket changes during the precopy phase, so each
loop — including the final freeze — only carries deltas.  Quiescent
connections cost almost nothing at freeze time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..oskern import CostModel, Host, SimProcess
from ..tcpip import TCPSocket, TCPState
from .capture import capture_key_for
from .migd import MigrationChannel
from .sockmig import (
    SocketRecord,
    SocketTracker,
    subtract_tcp_socket,
    subtract_udp_socket,
    disable_socket,
)
from .stats import MigrationReport
from .translation import TRANSD_PORT, TranslationRule

__all__ = [
    "SocketEntry",
    "MigrationContext",
    "enumerate_sockets",
    "SocketMigrationStrategy",
    "IterativeSocketMigration",
    "CollectiveSocketMigration",
    "IncrementalCollectiveSocketMigration",
    "make_strategy",
    "STRATEGIES",
]


@dataclass
class SocketEntry:
    """One socket to migrate: the object, its fd (None for kernel-internal
    listener children) and the owning listener's port, if any."""

    sock: Any
    fd: Optional[int]
    parent_port: Optional[int] = None

    @property
    def is_tcp(self) -> bool:
        return isinstance(self.sock, TCPSocket)


def enumerate_sockets(proc: SimProcess) -> list[SocketEntry]:
    """All sockets of a process, in FD-table order: FD-table sockets plus
    the kernel-internal children of any listening socket (accept queue +
    embryos in SYN_RCVD)."""
    entries: list[SocketEntry] = []
    for fd, sf in proc.fdtable.sockets():
        sock = sf.socket
        entries.append(SocketEntry(sock, fd))
        if isinstance(sock, TCPSocket) and sock.state == TCPState.LISTEN:
            for child in sock._accept_queue:
                entries.append(SocketEntry(child, None, parent_port=sock.local.port))
            for child in sock._embryos:
                entries.append(SocketEntry(child, None, parent_port=sock.local.port))
    return entries


@dataclass
class MigrationContext:
    """Everything a strategy needs to run."""

    source: Host
    dest: Host
    proc: SimProcess
    channel: MigrationChannel
    tracker: SocketTracker
    report: MigrationReport
    costs: CostModel
    capture_enabled: bool = True
    signal_based: bool = True
    dump_user_queues: bool = True
    rpc_timeout: Optional[float] = None
    #: Session id string (``source>dest#pid``) carried by every wire
    #: body and trace record of this migration; None for bare contexts.
    session: Optional[str] = None
    #: Causal id of the freeze-enter record (0 when tracing is off);
    #: strategies stamp it on their wire bodies as ``"cause"`` so
    #: destination-side staging records chain back to the freeze.
    causal_ref: int = 0
    #: flow_id -> source socket object, for in-place restore.
    originals: dict = field(default_factory=dict)
    #: (remote ip, remote port, local port) -> physical peer address,
    #: snapshotted by the engine before peer rules are relocated.
    peer_physical: dict = field(default_factory=dict)

    @property
    def env(self):
        return self.source.env

    def stamp_cause(self, body: dict) -> dict:
        """Attach the freeze causal ref to a wire body (traced runs
        only — untraced wire bodies stay unchanged)."""
        if self.env.tracer.enabled and self.causal_ref:
            body["cause"] = self.causal_ref
        return body

    def local_prefix(self) -> str:
        return self.source.kernel.local_prefix

    def is_local_peer(self, sock) -> bool:
        """Is this an in-cluster connection needing address translation?"""
        return (
            sock.remote is not None
            and sock.remote.ip.value.startswith(self.local_prefix())
        )

    def register_original(self, entry: SocketEntry, record: SocketRecord) -> None:
        self.originals[record.flow_id] = entry.sock

    def count_socket(self, entry: SocketEntry) -> None:
        if entry.is_tcp:
            self.report.n_tcp_sockets += 1
        else:
            self.report.n_udp_sockets += 1
        if self.is_local_peer(entry.sock):
            self.report.n_local_connections += 1


class SocketMigrationStrategy:
    """Base class: shared capture/translation plumbing."""

    name = "abstract"

    # -- precopy ------------------------------------------------------------
    def precopy_records(self, ctx: MigrationContext) -> tuple[list[SocketRecord], float]:
        """Socket records to piggyback on one precopy round, plus the CPU
        cost of producing them.  Default: sockets are untouched until the
        freeze phase."""
        return [], 0.0

    # -- freeze -------------------------------------------------------------
    def freeze_sockets(self, ctx: MigrationContext):
        """Generator performing the socket part of the freeze phase."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------
    def _capture_request(self, ctx: MigrationContext, entries: list[SocketEntry]):
        """Enable capture on the destination for the given sockets."""
        if not ctx.capture_enabled or not entries:
            return
        keys = [capture_key_for(e.sock) for e in entries]
        nbytes = (
            ctx.costs.capture_req_base_bytes
            + ctx.costs.capture_req_bytes_per_socket * len(keys)
        )
        ctx.report.bytes.capture_requests += nbytes
        tr = ctx.env.tracer
        if tr.enabled:
            tr.event(
                "capture.request",
                pid=ctx.proc.pid,
                session=ctx.session,
                keys=len(keys),
                nbytes=nbytes,
            )
        yield ctx.channel.request(
            {"op": "capture", "pid": ctx.proc.pid, "keys": keys}, nbytes
        )

    def _translation_requests(self, ctx: MigrationContext, entries: list[SocketEntry]):
        """Ask each in-cluster peer's transd to install rewrite filters
        (Section III-C, after capture is enabled on the destination).

        The request goes to the peer's *physical* host: if the peer
        process itself migrated earlier, our host's own filter table
        records where (see :meth:`TransD.resolve_physical`)."""
        from .translation import install_transd

        source_transd = install_transd(ctx.source)
        for entry in entries:
            sock = entry.sock
            if not ctx.is_local_peer(sock):
                continue
            rule = TranslationRule(
                old_ip=sock.orig_local_ip or sock.local.ip,
                new_ip=ctx.dest.local_ip,
                mig_port=sock.local.port,
                peer_port=sock.remote.port,
            )
            conn_key = (sock.remote.ip, sock.remote.port, sock.local.port)
            physical = ctx.peer_physical.get(conn_key) or source_transd.resolve_physical(
                *conn_key
            )
            tr = ctx.env.tracer
            if tr.enabled:
                tr.event(
                    "transd.request",
                    pid=ctx.proc.pid,
                    session=ctx.session,
                    peer=str(physical),
                    mig_port=rule.mig_port,
                    peer_port=rule.peer_port,
                )
            yield ctx.source.control.rpc(
                physical,
                TRANSD_PORT,
                {"op": "install", "rule": rule},
                size=96,
                timeout=ctx.rpc_timeout,
            )

    def _subtract(self, ctx: MigrationContext, entry: SocketEntry, full: bool) -> SocketRecord:
        """Disable + dump one socket (full or incremental)."""
        sock = entry.sock
        include_user_queues = (not ctx.signal_based) and ctx.dump_user_queues
        if full:
            if entry.is_tcp:
                rec = subtract_tcp_socket(
                    sock, entry.fd, ctx.costs, include_user_queues=include_user_queues
                )
            else:
                rec = subtract_udp_socket(sock, entry.fd, ctx.costs)
        else:
            rec = ctx.tracker.delta(sock, entry.fd, during_precopy=False)
            assert rec is not None
            if include_user_queues and entry.is_tcp and (sock.backlog or sock.prequeue):
                raw = [("backlog", p) for p in sock.backlog] + [
                    ("prequeue", p) for p in sock.prequeue
                ]
                if rec.scalars is None:
                    rec.scalars = {}
                rec.scalars["_user_queues"] = raw
                rec.nbytes += sum(p.size + ctx.costs.skb_meta_bytes for _q, p in raw)
        # Disable after the dump: the dump must record the socket's
        # pre-migration hashed/bound status for the destination rehash.
        disable_socket(sock)
        rec.parent_port = entry.parent_port
        ctx.register_original(entry, rec)
        ctx.count_socket(entry)
        tr = ctx.env.tracer
        if tr.enabled:
            tr.event(
                "sock.subtract",
                pid=ctx.proc.pid,
                session=ctx.session,
                proto=rec.proto,
                nbytes=rec.nbytes,
                full=rec.full,
                fd=entry.fd,
            )
        metrics = ctx.env.metrics
        if metrics is not None:
            metrics.histogram("sock.subtract.bytes").observe(rec.nbytes)
        return rec


class IterativeSocketMigration(SocketMigrationStrategy):
    """One capture round-trip + one subtract + one transfer *per socket*."""

    name = "iterative"

    def freeze_sockets(self, ctx: MigrationContext):
        sent_any = False
        for entry in enumerate_sockets(ctx.proc):
            yield from self._capture_request(ctx, [entry])
            yield from self._translation_requests(ctx, [entry])
            yield ctx.env.timeout(ctx.tracker.subtract_cost(entry.sock, full=True))
            rec = self._subtract(ctx, entry, full=True)
            ctx.report.bytes.freeze_sockets += rec.nbytes
            # Streamed one-way: the next socket's subtract starts once
            # this record is handed to the NIC.  The compute/transmit
            # alternation (and the per-socket capture round-trip) is
            # exactly what makes this baseline slow.
            ctx.channel.send(
                ctx.stamp_cause(
                    {"op": "sockets", "pid": ctx.proc.pid, "records": [rec]}
                ),
                rec.nbytes,
            )
            sent_any = True
        if sent_any:
            # Barrier: ensure all streamed records were applied.
            yield ctx.channel.request(
                ctx.stamp_cause(
                    {"op": "sockets", "pid": ctx.proc.pid, "records": []}
                ),
                1,
            )


class CollectiveSocketMigration(SocketMigrationStrategy):
    """Three-phase FD-table scatter: batch capture, unified buffer."""

    name = "collective"
    incremental = False

    def freeze_sockets(self, ctx: MigrationContext):
        entries = enumerate_sockets(ctx.proc)
        # Phase 1: capture details of all connections, one request.
        yield from self._capture_request(ctx, entries)
        yield from self._translation_requests(ctx, entries)
        # Phase 2: subtract everything into one unified buffer.
        records: list[SocketRecord] = []
        cpu = 0.0
        for entry in entries:
            cpu += ctx.tracker.subtract_cost(entry.sock, full=not self.incremental)
            records.append(self._subtract(ctx, entry, full=not self.incremental))
        if cpu:
            yield ctx.env.timeout(cpu)
        total = sum(r.nbytes for r in records)
        ctx.report.bytes.freeze_sockets += total
        if records:
            yield ctx.channel.request(
                ctx.stamp_cause(
                    {"op": "sockets", "pid": ctx.proc.pid, "records": records}
                ),
                total,
            )
        # Phase 3 (regular FD iteration minus sockets) runs in the engine.


class IncrementalCollectiveSocketMigration(CollectiveSocketMigration):
    """Collective + per-connection tracking during precopy: the freeze
    round only carries what changed since the last loop."""

    name = "incremental-collective"
    incremental = True

    def precopy_records(self, ctx: MigrationContext) -> tuple[list[SocketRecord], float]:
        records: list[SocketRecord] = []
        cpu = 0.0
        for entry in enumerate_sockets(ctx.proc):
            rec = ctx.tracker.delta(entry.sock, entry.fd, during_precopy=True)
            if rec is None:
                continue  # locked or fast-path: left for a later round
            rec.parent_port = entry.parent_port
            cpu += ctx.tracker.subtract_cost(entry.sock, full=rec.full)
            records.append(rec)
        return records, cpu


STRATEGIES = {
    cls.name: cls
    for cls in (
        IterativeSocketMigration,
        CollectiveSocketMigration,
        IncrementalCollectiveSocketMigration,
    )
}


def make_strategy(name_or_instance) -> SocketMigrationStrategy:
    if isinstance(name_or_instance, SocketMigrationStrategy):
        return name_or_instance
    try:
        return STRATEGIES[name_or_instance]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name_or_instance!r}; choose from {sorted(STRATEGIES)}"
        ) from None
