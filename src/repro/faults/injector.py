"""The :class:`FaultInjector`: turns a :class:`~repro.faults.plan.
FaultPlan` into scheduled deliveries against a live cluster.

Three delivery mechanisms, one per fault scope:

* **link** faults install a single multiplexing fault filter on the
  target node's local link (:meth:`repro.net.Link.set_fault_filter`);
  per-packet loss/corruption verdicts draw from the injector's seeded
  ``faults`` RNG stream, so a given master seed replays identical
  packet fates.
* **node** faults are DES processes that flip the target host's
  interfaces administratively down (and, for a stall, back up),
  silently eating traffic both ways — including packets already in
  flight when the fault fires.
* **migd** faults are delivered at the session fault point
  (:meth:`repro.core.session.MigrationSession.transition` consults
  ``env.faults``): leaving ``negotiating``/``precopy``/``freeze``
  raises :class:`~repro.faults.plan.MigdAbortInjected` at the source,
  and entering ``restoring`` fails the destination's staging so the
  freeze request earns an error reply and the genuine distributed
  back-out path runs.

Everything the injector does emits ``fault.*`` trace events, and —
when metrics are enabled — ``faults.*`` gauges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..net import CORRUPT, DROP, Link, Packet
from .plan import (
    Fault,
    FaultPlan,
    LINK_FAULTS,
    LinkPartition,
    MigdAbort,
    MigdAbortInjected,
    NodeCrash,
    NodeStall,
    PacketCorrupt,
    _WindowedLinkFault,
)

if TYPE_CHECKING:
    from ..cluster import Cluster
    from ..core.session import MigrationSession

__all__ = ["FaultInjector", "install_faults"]


class FaultInjector:
    """Armed fault plan for one cluster.

    Construct with the cluster and a plan, then :meth:`arm` before (or
    during) the run.  The per-packet RNG defaults to the cluster's
    seeded ``"faults"`` stream — pass ``rng`` only to decouple fault
    randomness from the master seed.
    """

    def __init__(
        self,
        cluster: "Cluster",
        plan: FaultPlan,
        rng=None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.plan = plan
        self.rng = rng if rng is not None else cluster.rng.stream("faults")
        self.injected_total = 0
        self.packets_dropped = 0
        self.packets_corrupted = 0
        self.migd_aborts = 0
        self._armed = False
        #: Link-scope faults grouped by the link they filter.
        self._link_faults: dict[str, list[_WindowedLinkFault]] = {}
        #: Pending one-shot migd aborts, consumed at delivery.
        self._pending_aborts: list[MigdAbort] = []
        #: Hosts taken down permanently; a stall's resume never
        #: resurrects a crashed node.
        self._crashed: set[str] = set()
        #: Causal id of each fault's ``fault.injected`` record (traced
        #: runs only), so effect events chain back to the injection.
        self._injection_refs: dict[int, int] = {}

    # -- arming ---------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Install filters, schedule node faults, and attach to the
        environment (``env.faults``).  Call once per injector."""
        if self._armed:
            raise RuntimeError("fault injector already armed")
        if self.env.faults is not None:
            raise RuntimeError("environment already has an armed fault injector")
        self._armed = True
        self.env.faults = self

        for fault in self.plan:
            if isinstance(fault, LINK_FAULTS):
                self._link_faults.setdefault(fault.target, []).append(fault)
                self.env.process(
                    self._announce(fault), name=f"fault-{fault.kind}-{fault.target}"
                )
            elif isinstance(fault, (NodeCrash, NodeStall)):
                self.env.process(
                    self._node_fault(fault), name=f"fault-{fault.kind}-{fault.target}"
                )
            elif isinstance(fault, MigdAbort):
                self._pending_aborts.append(fault)
            else:
                raise TypeError(f"injector cannot deliver {fault!r}")

        for target, faults in self._link_faults.items():
            link = self._resolve_link(target)
            link.set_fault_filter(self._make_filter(link, faults))

        metrics = self.env.metrics
        if metrics is not None:
            metrics.gauge("faults.injected_total", fn=lambda: self.injected_total)
            metrics.gauge("faults.packets_dropped", fn=lambda: self.packets_dropped)
            metrics.gauge(
                "faults.packets_corrupted", fn=lambda: self.packets_corrupted
            )
            metrics.gauge("faults.migd_aborts", fn=lambda: self.migd_aborts)
        return self

    # -- resolution -----------------------------------------------------------
    def _resolve_link(self, target: str) -> Link:
        """A link target names the owning cluster host (``node2`` or
        ``dbserver``); the fault acts on that host's local link."""
        link = self.cluster.local_links.get(target)
        if link is None:
            known = ", ".join(sorted(self.cluster.local_links))
            raise ValueError(f"unknown link target {target!r} (known: {known})")
        return link

    def _resolve_host(self, target: str):
        if self.cluster.db is not None and target == self.cluster.db.name:
            return self.cluster.db
        for node in self.cluster.nodes:
            if node.name == target or str(node.local_ip) == target:
                return node
        raise ValueError(f"unknown node target {target!r}")

    # -- delivery: announcements ---------------------------------------------
    def _record_injection(self, fault: Fault, **extra) -> int:
        self.injected_total += 1
        tr = self.env.tracer
        ref = 0
        if tr.enabled:
            ref = tr.event(
                "fault.injected",
                ref=True,
                kind=fault.kind,
                scope=fault.scope,
                target=fault.target,
                fault=fault.describe(),
                **extra,
            )
            self._injection_refs[id(fault)] = ref
        return ref

    def _announce(self, fault: _WindowedLinkFault):
        """Windowed link faults are passive filters; this process marks
        the window opening in the trace at the fault's time."""
        if fault.at > self.env.now:
            yield self.env.timeout(fault.at - self.env.now)
        self._record_injection(fault)

    # -- delivery: node faults -------------------------------------------------
    def _node_fault(self, fault: Fault):
        if fault.at > self.env.now:
            yield self.env.timeout(fault.at - self.env.now)
        host = self._resolve_host(fault.target)
        ifaces = [i for i in (host.public_iface, host.local_iface) if i is not None]
        ref = self._record_injection(fault, node=host.name)
        tr = self.env.tracer
        if isinstance(fault, NodeCrash):
            self._crashed.add(host.name)
            for iface in ifaces:
                iface.up = False
            if tr.enabled:
                tr.event("fault.node.crash", caused_by=ref, node=host.name)
            return
        # Stall: down, hold, resume — unless a crash landed meanwhile.
        for iface in ifaces:
            iface.up = False
        if tr.enabled:
            tr.event(
                "fault.node.stall",
                caused_by=ref,
                node=host.name,
                duration=fault.duration,
            )
        yield self.env.timeout(fault.duration)
        if host.name in self._crashed:
            return
        for iface in ifaces:
            iface.up = True
        if tr.enabled:
            tr.event("fault.node.resume", caused_by=ref, node=host.name)

    # -- delivery: link filter -------------------------------------------------
    def _make_filter(self, link: Link, faults: list[_WindowedLinkFault]):
        faults = sorted(faults, key=lambda f: f.at)

        def fault_filter(now: float, packet: Packet, from_side: int) -> Optional[str]:
            for fault in faults:
                if not fault.active(now):
                    continue
                if isinstance(fault, LinkPartition):
                    verdict = DROP
                elif self.rng.random() >= fault.rate:
                    continue
                else:
                    verdict = CORRUPT if isinstance(fault, PacketCorrupt) else DROP
                if verdict == CORRUPT:
                    self.packets_corrupted += 1
                else:
                    self.packets_dropped += 1
                tr = self.env.tracer
                if tr.enabled:
                    tr.event(
                        f"fault.link.{'corrupt' if verdict == CORRUPT else 'drop'}",
                        caused_by=self._injection_refs.get(id(fault)),
                        link=link.name,
                        kind=fault.kind,
                        from_side=from_side,
                        bytes=packet.size,
                    )
                return verdict
            return None

        return fault_filter

    # -- delivery: migd aborts (the session fault point) -----------------------
    def on_transition(self, session: "MigrationSession", frm, to) -> None:
        """Consulted by :meth:`MigrationSession.transition` before each
        state change.  May raise :class:`MigdAbortInjected`, which the
        engine's ordinary RpcError path turns into a rollback."""
        if not self._pending_aborts or to.value == "aborted":
            return
        now = self.env.now
        for fault in list(self._pending_aborts):
            if now < fault.at:
                continue
            if not fault.matches_session(session.label, session.id.pid):
                continue
            if fault.phase == "restoring":
                # Delivered on *entry*: fail the destination's staging,
                # let the transition commit, and let the freeze request
                # earn its error reply through the real back-out path.
                if to.value != "restoring":
                    continue
                self._pending_aborts.remove(fault)
                self._deliver_abort(fault, session)
                migd = session.dest.daemons.get("migd")
                if migd is not None:
                    migd.fail_session(session.label)
                return
            if fault.phase == "postcopy":
                # Delivered on *entry*: fail the source's page store.
                # The engine's push loop observes it at the next batch
                # boundary, aborts, and tells the destination's
                # pagefaultd to fail its blocked writers.
                if to.value != "postcopy":
                    continue
                self._pending_aborts.remove(fault)
                self._deliver_abort(fault, session)
                migd = session.source.daemons.get("migd")
                if migd is not None:
                    migd.fail_postcopy(session.label)
                return
            if frm.value != fault.phase:
                continue
            self._pending_aborts.remove(fault)
            self._deliver_abort(fault, session)
            raise MigdAbortInjected(
                f"injected migd abort in phase {fault.phase!r} "
                f"(session {session.label})"
            )

    def _deliver_abort(self, fault: MigdAbort, session: "MigrationSession") -> None:
        self.migd_aborts += 1
        ref = self._record_injection(fault, session=session.label, phase=fault.phase)
        tr = self.env.tracer
        if tr.enabled:
            # The session's next records (ABORTED transition, mig.abort)
            # chain back to the injected fault.
            session.causal_ref = tr.event(
                "fault.migd.abort",
                caused_by=ref,
                ref=True,
                session=session.label,
                pid=session.id.pid,
                phase=fault.phase,
                dest=session.dest.name,
            )


def install_faults(cluster: "Cluster", plan: FaultPlan, rng=None) -> FaultInjector:
    """Build and arm a :class:`FaultInjector` for ``cluster``."""
    return FaultInjector(cluster, plan, rng=rng).arm()
