"""Heartbeat-timeout failure detection.

The conductor already prunes peers whose heartbeats lapse (with
tombstones against late replays, see :class:`~repro.middleware.loadinfo.
PeerDatabase`); the :class:`FailureDetector` adds the *judgement* layer
the recovery machinery needs: how long has a peer been silent, and how
sure are we that it is gone?

Classic three-state phi-accrual-lite semantics:

* ``alive`` — heard from within ``suspect_timeout``.
* ``suspect`` — silent past ``suspect_timeout``: stop *choosing* it as
  a migration destination, but in-flight work may still complete.
* ``dead`` — silent past ``dead_timeout``: sessions targeting it are
  hopeless; abort, roll back, retry elsewhere.

A peer that speaks again from any state snaps back to ``alive`` (and
is traced as a recovery).  All transitions emit ``recover.*`` trace
events so repro-trace timelines show detection latency next to the
faults that caused it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..des import Environment
from ..net import IPAddr

__all__ = ["ALIVE", "SUSPECT", "DEAD", "PeerHealth", "FailureDetector"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


@dataclass
class PeerHealth:
    """Detector record for one peer."""

    ip: IPAddr
    name: str
    state: str
    #: Simulated time of the last message from this peer.
    last_heard: float
    #: When the peer entered its current state.
    since: float


class FailureDetector:
    """Per-conductor view of which peers are answering.

    Fed by :meth:`heard_from` on every inbound conductor message and
    swept by :meth:`check` from the heartbeat loop.  Pure bookkeeping —
    it never sends probes of its own, so arming it costs no wire time.
    """

    def __init__(
        self,
        env: Environment,
        *,
        suspect_timeout: float = 2.5,
        dead_timeout: float = 5.0,
        node: str = "",
    ) -> None:
        if suspect_timeout <= 0 or dead_timeout <= suspect_timeout:
            raise ValueError(
                "need 0 < suspect_timeout < dead_timeout "
                f"(got {suspect_timeout}, {dead_timeout})"
            )
        self.env = env
        self.suspect_timeout = suspect_timeout
        self.dead_timeout = dead_timeout
        self.node = node
        self._peers: dict[IPAddr, PeerHealth] = {}
        self.deaths_total = 0
        self.recoveries_total = 0

    # -- inputs ---------------------------------------------------------------
    def heard_from(self, ip: IPAddr, name: str = "") -> None:
        """A message from ``ip`` arrived: it is alive right now."""
        now = self.env.now
        rec = self._peers.get(ip)
        if rec is None:
            self._peers[ip] = PeerHealth(
                ip=ip, name=name, state=ALIVE, last_heard=now, since=now
            )
            return
        rec.last_heard = now
        if name:
            rec.name = name
        if rec.state != ALIVE:
            prior = rec.state
            rec.state = ALIVE
            rec.since = now
            self.recoveries_total += 1
            tr = self.env.tracer
            if tr.enabled:
                tr.event(
                    "recover.alive",
                    node=self.node,
                    peer=rec.name or str(ip),
                    was=prior,
                )

    def forget(self, ip: IPAddr) -> None:
        """Drop a peer entirely (graceful leave: silence is expected)."""
        self._peers.pop(ip, None)

    def check(self) -> list[PeerHealth]:
        """Sweep for silence; returns peers that changed state."""
        now = self.env.now
        changed = []
        tr = self.env.tracer
        for rec in self._peers.values():
            silent = now - rec.last_heard
            if rec.state == ALIVE and silent > self.suspect_timeout:
                rec.state = SUSPECT
                rec.since = now
                changed.append(rec)
                if tr.enabled:
                    tr.event(
                        "recover.suspect",
                        node=self.node,
                        peer=rec.name or str(rec.ip),
                        silent=silent,
                    )
            if rec.state == SUSPECT and silent > self.dead_timeout:
                rec.state = DEAD
                rec.since = now
                self.deaths_total += 1
                changed.append(rec)
                if tr.enabled:
                    tr.event(
                        "recover.dead",
                        node=self.node,
                        peer=rec.name or str(rec.ip),
                        silent=silent,
                    )
        return changed

    # -- queries --------------------------------------------------------------
    def state(self, ip: IPAddr) -> str:
        """Detector state for ``ip``; an unknown peer counts as alive
        (we have no evidence against it)."""
        rec = self._peers.get(ip)
        return rec.state if rec is not None else ALIVE

    def usable(self, ip: IPAddr) -> bool:
        """Should new work target this peer?  Only when alive."""
        return self.state(ip) == ALIVE

    def suspects(self) -> list[PeerHealth]:
        return [r for r in self._peers.values() if r.state == SUSPECT]

    def __len__(self) -> int:
        return len(self._peers)
