"""First-class migration sessions.

One :class:`MigrationSession` owns everything that belongs to a single
live migration: its identity (the ``(source, dest, pid)`` session id
that every wire message and trace record carries), its state machine,
its bulk :class:`~repro.core.migd.MigrationChannel`, its
:class:`~repro.core.stats.MigrationReport`, and the rollback path that
undoes a half-finished migration on the source.

Sessions are what make migrations concurrent end to end: the source
engine drives a session, the destination migd stages inbound state *per
session* (two sources migrating equal-pid processes to one destination
can no longer corrupt each other), and the observability layer groups
trace records by session id so interleaved migrations stay readable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..oskern import SimProcess
from ..oskern.node import Host
from .migd import DEFAULT_RPC_TIMEOUT, MIGD_PORT, MigrationChannel
from .sockmig import SocketTracker
from .stats import MigrationReport
from .strategies import MigrationContext, SocketMigrationStrategy

__all__ = ["SessionId", "SessionState", "MigrationSession"]


@dataclass(frozen=True)
class SessionId:
    """Identity of one migration: source node, destination node, pid.

    The string form (``node1>node2#1000``) is what travels in wire
    bodies (``session`` field) and trace records; it is unique among
    concurrently in-flight migrations because a process migrates from
    exactly one source to one destination at a time.
    """

    source: str
    dest: str
    pid: int

    @property
    def key(self) -> tuple:
        return (self.source, self.dest, self.pid)

    def __str__(self) -> str:
        return f"{self.source}>{self.dest}#{self.pid}"


class SessionState(str, enum.Enum):
    """Lifecycle of a migration session (see docs/protocols.md)."""

    NEGOTIATING = "negotiating"
    PRECOPY = "precopy"
    FREEZE = "freeze"
    RESTORING = "restoring"
    #: Post-copy tail: the process already runs on the destination while
    #: the source pushes the residual pages / serves demand fetches.
    POSTCOPY = "postcopy"
    DONE = "done"
    ABORTED = "aborted"


#: Allowed state-machine edges; anything else is a protocol bug.
_TRANSITIONS = {
    SessionState.NEGOTIATING: {SessionState.PRECOPY, SessionState.ABORTED},
    SessionState.PRECOPY: {SessionState.FREEZE, SessionState.ABORTED},
    SessionState.FREEZE: {SessionState.RESTORING, SessionState.ABORTED},
    SessionState.RESTORING: {
        SessionState.DONE,
        SessionState.POSTCOPY,
        SessionState.ABORTED,
    },
    SessionState.POSTCOPY: {SessionState.DONE, SessionState.ABORTED},
    SessionState.DONE: set(),
    SessionState.ABORTED: set(),
}


class MigrationSession:
    """Everything owned by one migration, source side.

    Built by :class:`~repro.core.precopy.LiveMigrationEngine`, which
    remains the *driver*: it advances the protocol and calls
    :meth:`transition` at each phase boundary, while the session owns
    the identity, the channel, the report, the strategy context and the
    rollback bookkeeping.
    """

    def __init__(
        self,
        source: Host,
        dest: Host,
        proc: SimProcess,
        strategy: SocketMigrationStrategy,
        *,
        capture_enabled: bool = True,
        signal_based: bool = True,
        dump_user_queues: bool = True,
        rpc_timeout: Optional[float] = None,
        mode: str = "precopy",
        compression: str = "none",
    ) -> None:
        if rpc_timeout is None:
            # A session must never wait forever: a mid-stream partition
            # or crashed destination has to surface as an RpcError so
            # the engine can roll back and the conductor can retry.
            rpc_timeout = DEFAULT_RPC_TIMEOUT
        self.id = SessionId(source=source.name, dest=dest.name, pid=proc.pid)
        self.label = str(self.id)
        self.source = source
        self.dest = dest
        self.proc = proc
        self.env = source.env
        self.state = SessionState.NEGOTIATING
        costs = source.kernel.costs
        self.report = MigrationReport(
            strategy=strategy.name,
            source=source.name,
            destination=dest.name,
            pid=proc.pid,
            process_name=proc.name,
            session=self.label,
        )
        self.mode = mode
        self.report.mode = mode
        self.report.compression = compression
        self.channel = MigrationChannel(
            source, dest, rpc_timeout=rpc_timeout, session=self.label
        )
        if compression != "none":
            from .compress import make_compressor

            self.channel.compressor = make_compressor(compression, costs)
        self.ctx = MigrationContext(
            source=source,
            dest=dest,
            proc=proc,
            channel=self.channel,
            tracker=SocketTracker(costs),
            report=self.report,
            costs=costs,
            capture_enabled=capture_enabled,
            signal_based=signal_based,
            dump_user_queues=dump_user_queues,
            rpc_timeout=rpc_timeout,
            session=self.label,
        )
        #: Rollback bookkeeping filled in by the engine's peer-rule
        #: relocation: departure records and rules moved to the dest.
        self.tombstone_keys: list = []
        self.relocated_rules: list = []
        self._rolled_back = False
        #: Causal id of the most recent record on this session's causal
        #: chain (0 = none).  Seeded by the conductor with its decision
        #: record; each ``session.state`` event links back to it and
        #: becomes the new head.  Stays 0 when tracing is off.
        self.causal_ref: int = 0

    # -- state machine ------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in (SessionState.DONE, SessionState.ABORTED)

    def transition(self, to: SessionState) -> None:
        """Advance the state machine; invalid edges are protocol bugs."""
        if to not in _TRANSITIONS[self.state]:
            raise RuntimeError(
                f"session {self.label}: illegal transition "
                f"{self.state.value} -> {to.value}"
            )
        # Designated fault point (see repro.faults): an armed injector
        # may fail this boundary — raising MigdAbortInjected (an
        # RpcError, so the engine rolls back) or failing the
        # destination's staging before the transition commits.
        if self.env.faults is not None:
            self.env.faults.on_transition(self, self.state, to)
        tr = self.env.tracer
        if tr.enabled:
            # Each phase transition links back to the previous record on
            # the session chain and becomes the new chain head.
            self.causal_ref = tr.event(
                "session.state",
                caused_by=self.causal_ref,
                ref=True,
                pid=self.id.pid,
                session=self.label,
                frm=self.state.value,
                to=to.value,
            )
        self.state = to

    # -- abort/rollback -----------------------------------------------------
    def rollback(self) -> None:
        """Restore the source node to its pre-migration state.

        Called by the engine when the destination (or a transd peer)
        stops answering: tell the destination to drop this session's
        staging and filters, re-register the process locally, rehash
        every already-subtracted socket, and retract/restore the
        translation state the migration had already moved.

        Idempotent: a second call — e.g. a retry loop rolling back a
        session whose engine already did — is a no-op, as is calling it
        on a session that reached a terminal state by other means
        (nothing to undo after DONE; ABORTED means the undo already ran).
        """
        from .sockmig import reenable_socket
        from .translation import TRANSD_PORT, TranslationRule, install_transd

        if self._rolled_back or self.terminal:
            return
        self._rolled_back = True
        proc = self.proc
        kernel = self.source.kernel
        tr = self.env.tracer
        self.transition(SessionState.ABORTED)
        if tr.enabled:
            tr.event("mig.rollback.start", pid=proc.pid, session=self.label)
        # Best effort: tell the destination to drop its staging/filters.
        self.source.control.send(
            self.dest.local_ip,
            MIGD_PORT,
            {"op": "abort", "pid": proc.pid, "session": self.label},
        )
        # Re-register the process if the freeze message already took it
        # off this kernel.
        if proc.pid not in kernel.processes:
            proc.kernel = kernel
            kernel.processes[proc.pid] = proc
            kernel.cpu.adopt(proc)
        # Rehash every socket that was already subtracted, and retract
        # any translation filters pointing at the failed destination.
        for sock in self.ctx.originals.values():
            reenable_socket(sock)
            if tr.enabled:
                tr.event(
                    "mig.rollback.reenable_socket",
                    pid=proc.pid,
                    session=self.label,
                    local_port=sock.local.port,
                    remote=str(sock.remote) if sock.remote is not None else None,
                )
            if self.ctx.is_local_peer(sock):
                rule = TranslationRule(
                    old_ip=sock.orig_local_ip or sock.local.ip,
                    new_ip=self.dest.local_ip,
                    mig_port=sock.local.port,
                    peer_port=sock.remote.port,
                )
                self.source.control.send(
                    sock.remote.ip, TRANSD_PORT, {"op": "remove", "rule": rule}, size=96
                )
                if tr.enabled:
                    tr.event(
                        "mig.rollback.retract_filter",
                        pid=proc.pid,
                        session=self.label,
                        peer=str(sock.remote.ip),
                        mig_port=sock.local.port,
                    )
        # Re-install any peer rules that were relocated to the failed
        # destination, drop the departure records, and tell the failed
        # node to discard its copies.
        source_transd = install_transd(self.source)
        for tkey in self.tombstone_keys:
            source_transd.clear_tombstone(tkey)
        for rule in self.relocated_rules:
            source_transd.install(rule)
            self.source.control.send(
                self.dest.local_ip, TRANSD_PORT, {"op": "remove", "rule": rule}, size=96
            )
            if tr.enabled:
                tr.event(
                    "mig.rollback.retract_filter",
                    pid=proc.pid,
                    session=self.label,
                    peer=str(self.dest.local_ip),
                    mig_port=rule.mig_port,
                )
        if proc.is_frozen:
            proc.thaw()
            if tr.enabled:
                tr.event("mig.rollback.thaw", pid=proc.pid, session=self.label)

    def __repr__(self) -> str:
        return f"<MigrationSession {self.label} {self.state.value}>"
