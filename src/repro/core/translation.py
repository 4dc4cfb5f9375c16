"""Local address translation for in-cluster connection migration
(Sections III-C, V-D).

When process P migrates from node IP1 to node IP2 while holding a
connection to an in-cluster peer on IP3 (e.g. a MySQL server), the
migrated socket is restored with local address IP2 — but IP3 still
believes it talks to IP1.  The *translation daemon* (``transd``) on IP3
installs a filter pair:

- ``NF_INET_LOCAL_OUT``: packets addressed to IP1 on the flow are
  rewritten to IP2.  Two technical subtleties reproduced from the paper:
  the packet's *destination-cache entry* (inherited from the unchanged
  socket) still points at IP1 and must be replaced with an accurate one,
  and the transport checksum must be recomputed for the new header.
- ``NF_INET_LOCAL_IN``: packets arriving from IP2 on the flow get their
  source rewritten back to IP1, so the peer socket keeps matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net import IPAddr, Packet
from ..oskern import NF_ACCEPT, NF_INET_LOCAL_IN, NF_INET_LOCAL_OUT
from ..oskern.node import Host
from ..tcpip.dstcache import DstCacheEntry

__all__ = ["TranslationRule", "TransD", "install_transd", "TRANSD_PORT"]

TRANSD_PORT = 7200


@dataclass(frozen=True)
class TranslationRule:
    """One migrated in-cluster flow, seen from the *peer's* host.

    The peer's socket has local port ``peer_port`` and talks to
    ``old_ip:mig_port`` which physically moved to ``new_ip``.
    """

    old_ip: IPAddr
    new_ip: IPAddr
    mig_port: int
    peer_port: int
    #: When False (ablation/negative control) the filter "forgets" to
    #: replace the destination-cache entry — packets keep flowing to the
    #: old physical destination, the bug the paper describes.
    fix_dst_cache: bool = True
    #: When False, the filter "forgets" to recompute the checksum.
    fix_checksum: bool = True


class TransD:
    """The translation daemon: one per host that may peer with a
    migrating process."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._rules: dict[tuple[IPAddr, int, int], TranslationRule] = {}
        #: (local port, remote logical ip, remote port) of a socket that
        #: migrated away -> the host it moved to.  Filter installs that
        #: arrive for a departed socket are forwarded there — this is
        #: the "careful synchronization" that makes *concurrent*
        #: migrations of both endpoints of a connection converge.
        self._tombstones: dict[tuple[int, IPAddr, int], IPAddr] = {}
        self._in_hook = None
        self._out_hook = None
        self.out_translated = 0
        self.in_translated = 0
        host.control.register(TRANSD_PORT, self._handle_request)

    # -- control-plane ----------------------------------------------------------
    def _handle_request(self, body, src_ip, respond) -> None:
        op = body.get("op")
        if op == "install":
            rule = body["rule"]
            # The socket this rule is meant for may have migrated away;
            # chase it through the tombstone chain.
            fwd = self._tombstones.get((rule.peer_port, rule.old_ip, rule.mig_port))
            if fwd is not None:
                tr = self.host.env.tracer
                if tr.enabled:
                    tr.event(
                        "transd.forward",
                        host=self.host.name,
                        forwarded_to=str(fwd),
                        mig_port=rule.mig_port,
                        peer_port=rule.peer_port,
                    )
                self.host.env.process(
                    self._forward_install(fwd, body, respond),
                    name="transd-forward",
                )
                return
            self.install(rule)
            if respond:
                respond({"ok": True, "cost": self.host.kernel.costs.translation_install_cost})
        elif op == "remove":
            self.remove(body["rule"])
            if respond:
                respond({"ok": True})
        elif op == "arrived":
            # A process landed here: it is the authority for these flows
            # now, so any stale departure records must not redirect
            # future installs away again.
            for key in body["keys"]:
                self._tombstones.pop(tuple(key), None)
            if respond:
                respond({"ok": True})
        else:
            if respond:
                respond(f"unknown op {op!r}", error=True)

    def _forward_install(self, fwd: IPAddr, body, respond):
        try:
            reply = yield self.host.control.rpc(
                fwd, TRANSD_PORT, body, size=96, timeout=5.0
            )
        except Exception as exc:
            if respond:
                respond(str(exc), error=True)
            return
        if respond:
            respond(reply)

    # -- rule management ------------------------------------------------------------
    def install(self, rule: TranslationRule) -> None:
        key = (rule.old_ip, rule.mig_port, rule.peer_port)
        self._rules[key] = rule
        tr = self.host.env.tracer
        if tr.enabled:
            tr.event(
                "transd.install",
                host=self.host.name,
                old_ip=str(rule.old_ip),
                new_ip=str(rule.new_ip),
                mig_port=rule.mig_port,
                peer_port=rule.peer_port,
            )
        if self._out_hook is None:
            self._out_hook = self.host.kernel.netfilter.register(
                NF_INET_LOCAL_OUT, self._translate_out, name="transd-out"
            )
            # Priority below the migration capture hook (-100): incoming
            # packets are translated back to their logical addresses
            # *before* capture filters match, so a destination node can
            # capture traffic from a peer that itself migrated earlier.
            self._in_hook = self.host.kernel.netfilter.register(
                NF_INET_LOCAL_IN, self._translate_in, priority=-150, name="transd-in"
            )

    def remove(self, rule: TranslationRule) -> None:
        self._rules.pop((rule.old_ip, rule.mig_port, rule.peer_port), None)
        tr = self.host.env.tracer
        if tr.enabled:
            tr.event(
                "transd.remove",
                host=self.host.name,
                old_ip=str(rule.old_ip),
                mig_port=rule.mig_port,
                peer_port=rule.peer_port,
            )
        if not self._rules and self._out_hook is not None:
            self.host.kernel.netfilter.unregister(self._out_hook)
            self.host.kernel.netfilter.unregister(self._in_hook)
            self._out_hook = self._in_hook = None

    def rules(self) -> list[TranslationRule]:
        return list(self._rules.values())

    # -- peer-to-peer migration support (both endpoints migratable) -----------
    def resolve_physical(self, ip: IPAddr, port: int, peer_port: int) -> IPAddr:
        """Where packets for logical ``ip:port`` (as seen by our local
        socket on ``peer_port``) are physically delivered right now.

        When the remote endpoint of a connection has itself migrated,
        this host's filter table is exactly the record of where it went:
        follow it so translation requests reach the peer's *current*
        host, not the address the socket believes in.
        """
        rule = self._rules.get((ip, port, peer_port))
        return rule.new_ip if rule is not None else ip

    def add_tombstone(self, key: tuple[int, IPAddr, int], new_ip: IPAddr) -> None:
        """Record that the socket (local port, remote ip, remote port)
        migrated to ``new_ip``; future installs for it are forwarded."""
        self._tombstones[key] = new_ip

    def clear_tombstone(self, key: tuple[int, IPAddr, int]) -> None:
        self._tombstones.pop(key, None)

    def take_rules_for(
        self, conns: list[tuple[IPAddr, int, int]]
    ) -> list[TranslationRule]:
        """Remove and return the rules covering the given connections
        ((remote ip, remote port, local port) triples).

        When a process migrates away, the filters that were rewriting
        *its* traffic (because its peers had migrated earlier) must
        move with it to the destination host.
        """
        taken = []
        for remote_ip, remote_port, local_port in conns:
            rule = self._rules.get((remote_ip, remote_port, local_port))
            if rule is not None:
                self.remove(rule)
                taken.append(rule)
        return taken

    # -- hooks ---------------------------------------------------------------------
    def _translate_out(self, pkt: Packet) -> str:
        rule = self._rules.get((pkt.dst_ip, pkt.dport, pkt.sport))
        if rule is None:
            return NF_ACCEPT
        pkt.dst_ip = rule.new_ip
        if rule.fix_dst_cache:
            # Replace the inherited destination-cache entry with an
            # accurate one; otherwise physical delivery still follows
            # the stale entry to the old node (Section V-D).
            pkt.dst_cache_ip = DstCacheEntry(rule.new_ip).ip
        if rule.fix_checksum:
            pkt.seal()
        self.out_translated += 1
        return NF_ACCEPT

    def _translate_in(self, pkt: Packet) -> str:
        # Incoming from the new node on a translated flow: restore the
        # source the peer socket expects.
        for rule in self._rules.values():
            if (
                pkt.src_ip == rule.new_ip
                and pkt.sport == rule.mig_port
                and pkt.dport == rule.peer_port
            ):
                pkt.src_ip = rule.old_ip
                if rule.fix_checksum:
                    pkt.seal()
                self.in_translated += 1
                break
        return NF_ACCEPT


def install_transd(host: Host) -> TransD:
    """Install (or fetch) the transd daemon on a host."""
    daemon = host.daemons.get("transd")
    if daemon is None:
        daemon = TransD(host)
        host.daemons["transd"] = daemon
    return daemon
