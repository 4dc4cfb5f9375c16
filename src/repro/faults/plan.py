"""Typed faults and the deterministic :class:`FaultPlan`.

A fault is plain data: *what* goes wrong, *where*, and *when*.  A plan
is an ordered collection of faults; the :class:`~repro.faults.injector.
FaultInjector` turns a plan into scheduled deliveries against a live
cluster.  Faults carry no randomness themselves — stochastic faults
(loss, corruption) draw per-packet verdicts from the injector's named
RNG stream, so the same master seed replays the same packet fates.

The taxonomy (see docs/faults.md):

=================  =============================================
:class:`NodeCrash`       a node goes silent forever
:class:`NodeStall`       a node goes silent for ``duration`` seconds
:class:`LinkLoss`        a link drops each packet with ``rate``
:class:`LinkPartition`   a link drops *every* packet for a window
:class:`PacketCorrupt`   a link corrupts each packet with ``rate``
:class:`MigdAbort`       a migration daemon dies in a given phase
=================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..oskern import RpcError

__all__ = [
    "Fault",
    "NodeCrash",
    "NodeStall",
    "LinkLoss",
    "LinkPartition",
    "PacketCorrupt",
    "MigdAbort",
    "MigdAbortInjected",
    "FaultPlan",
    "MIGD_PHASES",
]

#: Session phases a :class:`MigdAbort` may target (the non-terminal
#: :class:`~repro.core.session.SessionState` values).
MIGD_PHASES = ("negotiating", "precopy", "freeze", "restoring", "postcopy")


class MigdAbortInjected(RpcError):
    """Raised at a session's fault point when a :class:`MigdAbort`
    fires.  Subclasses :class:`~repro.oskern.RpcError` so the engine's
    existing abort-and-rollback path handles it unchanged."""


@dataclass(frozen=True)
class Fault:
    """Base fault: armed at time ``at`` against ``target``.

    ``target`` names a node (``node2`` or its local IP), a link (the
    owning node's name), or — for :class:`MigdAbort` — a migration
    session (the ``source>dest#pid`` id, a bare pid, or ``*``).
    """

    at: float
    target: str

    #: Short kind tag; also the DSL verb and the ``kind`` field of every
    #: ``fault.*`` trace record this fault emits.
    kind = "fault"
    #: What the target names: ``node``, ``link`` or ``migd`` (the DSL's
    #: second word).
    scope = "node"

    def describe(self) -> str:
        return f"t={self.at:g} {self.kind} {self.scope} {self.target}"


@dataclass(frozen=True)
class NodeCrash(Fault):
    """The node's interfaces go down at ``at`` and never come back."""

    kind = "crash"
    scope = "node"


@dataclass(frozen=True)
class NodeStall(Fault):
    """The node goes silent for ``duration`` seconds, then resumes.

    Models a long GC pause, an overloaded migd, a kernel lockup that
    recovers — the node *itself* keeps its state, unlike a crash."""

    duration: float = 1.0

    kind = "stall"
    scope = "node"

    def describe(self) -> str:
        return f"{super().describe()} duration={self.duration:g}"


@dataclass(frozen=True)
class _WindowedLinkFault(Fault):
    """A link fault active on ``[at, at + duration)``."""

    duration: float = float("inf")

    def active(self, now: float) -> bool:
        return self.at <= now < self.at + self.duration

    def describe(self) -> str:
        base = super().describe()
        if self.duration != float("inf"):
            base += f" duration={self.duration:g}"
        return base


@dataclass(frozen=True)
class LinkLoss(_WindowedLinkFault):
    """Each packet on the link is dropped with probability ``rate``."""

    rate: float = 0.1

    kind = "loss"
    scope = "link"

    def describe(self) -> str:
        return f"{super().describe()} rate={self.rate:g}"


@dataclass(frozen=True)
class LinkPartition(_WindowedLinkFault):
    """Every packet on the link is dropped during the window."""

    duration: float = 1.0

    kind = "partition"
    scope = "link"


@dataclass(frozen=True)
class PacketCorrupt(_WindowedLinkFault):
    """Each packet is corrupted (and hence discarded by the receiver's
    checksum) with probability ``rate``."""

    rate: float = 0.1

    kind = "corrupt"
    scope = "link"

    def describe(self) -> str:
        return f"{super().describe()} rate={self.rate:g}"


@dataclass(frozen=True)
class MigdAbort(Fault):
    """The destination migd fails while the session is in ``phase``.

    ``target`` selects the session: ``*`` (any), a full session id
    (``node1>node2#1000``), or a bare pid.  The failure is delivered at
    the session's designated fault point (the phase boundary in
    :meth:`~repro.core.session.MigrationSession.transition`): for
    ``negotiating``/``precopy``/``freeze`` the source engine observes
    the death when leaving the phase and rolls back; for ``restoring``
    the *destination's* staging is failed, so the freeze request earns
    an error reply and the genuine distributed back-out path runs; for
    ``postcopy`` the *source's* page store is failed on entry, so the
    push loop aborts and destination demand fetches earn error replies
    (the process stays on the destination — there is no source to roll
    back to once execution has moved).
    One-shot: each MigdAbort fires at most once.
    """

    phase: str = "precopy"

    kind = "abort"
    scope = "migd"

    def __post_init__(self) -> None:
        if self.phase not in MIGD_PHASES:
            raise ValueError(
                f"MigdAbort phase must be one of {MIGD_PHASES}, got {self.phase!r}"
            )

    def matches_session(self, session_label: str, pid: int) -> bool:
        if self.target == "*":
            return True
        if self.target == session_label:
            return True
        return self.target == str(pid)

    def describe(self) -> str:
        return f"{super().describe()} phase={self.phase}"


#: Fault classes that act on a link's packets.
LINK_FAULTS = (LinkLoss, LinkPartition, PacketCorrupt)
#: Fault classes that act on a whole node.
NODE_FAULTS = (NodeCrash, NodeStall)


class FaultPlan:
    """An ordered, immutable-ish schedule of faults.

    Plans are deterministic: iteration order is (time, insertion order),
    and the plan itself holds no RNG — the injector derives one from the
    simulation's seeded :class:`~repro.des.RngRegistry`, so identical
    seeds replay identical fault behaviour byte for byte.
    """

    def __init__(self, faults: Optional[Iterable[Fault]] = None) -> None:
        self._faults: list[Fault] = []
        for f in faults or ():
            self.add(f)

    def add(self, fault: Fault) -> "FaultPlan":
        if not isinstance(fault, Fault):
            raise TypeError(f"not a Fault: {fault!r}")
        if fault.at < 0:
            raise ValueError(f"fault time must be non-negative: {fault!r}")
        self._faults.append(fault)
        return self

    def __iter__(self) -> Iterator[Fault]:
        return iter(sorted(self._faults, key=lambda f: f.at))

    def __len__(self) -> int:
        return len(self._faults)

    def describe(self) -> str:
        """The plan in DSL form, one fault per line (round-trips through
        :func:`repro.faults.dsl.parse_plan`)."""
        return "\n".join(f.describe() for f in self)

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self)} faults>"
