"""The conductor daemon (``cond``, Section IV).

One per node.  It discovers its peers on the cluster network, monitors
local resource consumption (via the atop-like :class:`LoadMonitor`),
broadcasts periodic load heartbeats, and — being sender-initiated —
decides when to shed a process.  The *decision* is delegated to a
pluggable strategy (:mod:`repro.middleware.strategy`): each balance
round the conductor's :class:`~repro.middleware.strategy.Planner`
snapshots a ``ClusterModel``, asks the configured strategy for a ranked
``MigrationPlan``, and executes it through the two-phase admission,
failure-detector veto and retry machinery here.  The default strategy,
``paper-threshold``, is the paper's Section-IV loop (transfer policy
says *whether*, selection policy says *which*, location policy says
*where*) and reproduces the pre-strategy traces byte-identically.  The
actual transfer is carried out by the migration daemon
(:mod:`repro.core.migd`) through
:class:`~repro.core.precopy.LiveMigrationEngine`.

A conductor put to sleep by its strategy (``consolidate``) keeps
planning and heartbeating, with ``asleep`` set in its heartbeats, and
refuses every ``reserve``: a sleeping node is never a receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

from ..core import (
    LiveMigrationConfig,
    LiveMigrationEngine,
    MigrationReport,
)
from ..core.recovery import DEFAULT_RETRY
from ..des import Cohort
from ..net import IPAddr
from ..oskern import SimProcess
from ..oskern.node import Host
from .detector import FailureDetector
from .loadinfo import LoadInfo, PeerDatabase
from .monitor import LoadMonitor
from .policies import LocationPolicy, PolicyConfig, SelectionPolicy
from .strategy import Planner, make_strategy
from .twophase import MigrationAdmission

__all__ = ["CONDUCTOR_PORT", "ConductorConfig", "Conductor", "install_conductor"]

CONDUCTOR_PORT = 7300

#: atop sampling period (seconds).
MONITOR_INTERVAL = 1.0
#: Heartbeat period for the information policy (seconds).
HEARTBEAT_INTERVAL = 1.0
#: Heartbeat-period jitter fraction (±10%), drawn from a per-node
#: seeded stream, so a cluster's conductors neither heartbeat in
#: lockstep nor desynchronize between runs.
HEARTBEAT_JITTER = 0.1
#: Jitter draws taken from the stream at once (``Generator.random(n)``
#: yields the same doubles as ``n`` scalar draws).
JITTER_BLOCK = 64
#: Control RPCs to peers (discover, reserve) fail after this much
#: silence instead of hanging the calling loop — a crashed or
#: partitioned peer must look like an error, not a stuck conductor.
PEER_RPC_TIMEOUT = 2.0


@dataclass
class ConductorConfig:
    """Conductor tunables."""

    policies: PolicyConfig = dataclass_field(default_factory=PolicyConfig)
    migration: LiveMigrationConfig = dataclass_field(default_factory=LiveMigrationConfig)
    #: Balance-decision period (seconds).
    check_interval: float = 1.0
    #: Heartbeats older than this mark a departed peer.
    peer_stale_timeout: float = 5.0
    #: Failure detector: silence past this marks a peer *suspect* (no
    #: new work is sent its way) ...
    suspect_timeout: float = 2.5
    #: ... and past this marks it *dead* (in-flight sessions targeting
    #: it should abort, roll back and retry elsewhere).
    dead_timeout: float = 5.0
    #: Indicator stabilisation period after a migration (Section IV-A).
    calm_down: float = 10.0
    #: Concurrent migration sessions this node admits (inbound and
    #: outbound share the capacity).  1 = the paper's single slot; >1
    #: lets the balance loop launch several sessions per round.
    admission_capacity: int = 1
    #: Policy overrides (defaults: the paper's opposite-side-of-average
    #: location policy and difference-matched selection policy).  The
    #: ``paper-threshold`` strategy honours these; other strategies may
    #: ignore them.
    location_policy: Optional[LocationPolicy] = None
    selection_policy: Optional[SelectionPolicy] = None
    #: Decision strategy, by registry name (``repro.middleware.strategy``).
    #: The default reproduces the pre-strategy conductor byte-identically.
    strategy: str = "paper-threshold"
    #: Keyword arguments forwarded to the strategy factory (e.g.
    #: ``{"band": 5.0}`` for ``workload-balance-to-average``).
    strategy_params: dict = dataclass_field(default_factory=dict)
    #: Master seed for the conductor's per-node strategy rng stream
    #: (combined with the node address, so every node draws its own
    #: deterministic stream).  Stochastic strategies and policies —
    #: ``RandomLocationPolicy`` via the registry — must use this stream
    #: rather than module-level randomness.
    seed: int = 0
    #: Staleness guard window (seconds): the planner reports peers whose
    #: last heartbeat is older than this but never ranks them as
    #: migration candidates.  ``None`` = reuse ``peer_stale_timeout``.
    plan_staleness: Optional[float] = None


@dataclass(frozen=True)
class MigrationEvent:
    """A completed (or failed) migration, for the experiment logs."""

    time: float
    pid: int
    process_name: str
    source: str
    destination: str
    #: ``None`` when the migration failed before the thaw (the freeze
    #: interval never completed — see ``MigrationReport.freeze_time``).
    freeze_time: Optional[float]
    success: bool
    #: Session id string (``source>dest#pid``).
    session: str = ""


class Conductor:
    """The per-node load-balancing daemon."""

    def __init__(
        self,
        host: Host,
        scan_ips: list[IPAddr],
        resolve_host: Callable[[IPAddr], Host],
        config: Optional[ConductorConfig] = None,
        monitors: Optional[Cohort] = None,
    ) -> None:
        self.host = host
        self.env = host.env
        self.config = config or ConductorConfig()
        cfg = self.config
        self.resolve_host = resolve_host
        self.scan_ips = [ip for ip in scan_ips if ip != host.local_ip]

        self.monitor = LoadMonitor(host, interval=MONITOR_INTERVAL, cohort=monitors)
        self.peers = PeerDatabase(stale_timeout=cfg.peer_stale_timeout)
        self.detector = FailureDetector(
            self.env,
            suspect_timeout=cfg.suspect_timeout,
            dead_timeout=cfg.dead_timeout,
            node=host.name,
        )
        self.admission = MigrationAdmission(
            self.env, capacity=cfg.admission_capacity, calm_down=cfg.calm_down
        )
        #: Processes with an outbound session in flight (batch mode).
        self._outbound: set[SimProcess] = set()
        #: Powered down by the strategy's power action (``consolidate``).
        self.asleep = False

        # The decision plane: a per-node seeded rng stream (master seed
        # combined with the node address — deterministic, unlike Python's
        # randomized hash()), the configured strategy, and the planner
        # that executes its plans through the admission/retry machinery.
        import zlib

        import numpy as np

        self.strategy_rng = np.random.default_rng(
            [cfg.seed, zlib.crc32(host.local_ip.value.encode())]
        )
        self.strategy = make_strategy(cfg.strategy, cfg, self.strategy_rng)
        self.planner = Planner(self, self.strategy)

        #: Zone-server processes this conductor may migrate.
        self.managed: list[SimProcess] = []
        self.events: list[MigrationEvent] = []
        self.migrations_initiated = 0
        self.migrations_received = 0
        self.reserve_rejections = 0
        #: Failed migration attempts (each may trigger a retry) and
        #: processes given up on after the retry budget ran out.
        self.retries_total = 0
        self.giveups_total = 0
        self.enabled = True

        metrics = self.env.metrics
        if metrics is not None:
            metrics.gauge(
                f"cond.{host.name}.initiated", fn=lambda: self.migrations_initiated
            )
            metrics.gauge(
                f"cond.{host.name}.received", fn=lambda: self.migrations_received
            )
            metrics.gauge(
                f"cond.{host.name}.rejections", fn=lambda: self.reserve_rejections
            )
            metrics.gauge(
                f"cond.{host.name}.peers_known", fn=lambda: len(self.peers)
            )
            metrics.gauge(
                f"cond.{host.name}.peers_stale_total",
                fn=lambda: self.peers.stale_total,
            )
            metrics.gauge(
                f"cond.{host.name}.peers_suspect",
                fn=lambda: len(self.detector.suspects()),
            )
            metrics.gauge(
                f"cond.{host.name}.peers_dead_total",
                fn=lambda: self.detector.deaths_total,
            )
            metrics.gauge(
                f"cond.{host.name}.retries_total", fn=lambda: self.retries_total
            )
            metrics.gauge(
                f"cond.{host.name}.giveups_total", fn=lambda: self.giveups_total
            )

        host.control.register(CONDUCTOR_PORT, self._handle)
        self.env.process(self._discover(), name=f"cond-discover-{host.name}")
        self.env.process(self._heartbeat_loop(), name=f"cond-heartbeat-{host.name}")
        self.env.process(self._balance_loop(), name=f"cond-balance-{host.name}")

    # -- management ------------------------------------------------------------
    def manage(self, proc: SimProcess) -> None:
        if proc not in self.managed:
            self.managed.append(proc)

    def unmanage(self, proc: SimProcess) -> None:
        if proc in self.managed:
            self.managed.remove(proc)

    def close(self) -> None:
        """Cut the planner's back-reference once the world has ended (see
        :meth:`repro.oskern.Host.close`)."""
        self.planner.cond = None

    def leave(self) -> None:
        """Graceful departure: notify peers and go quiet.

        Peers drop this node immediately instead of waiting for its
        heartbeats to go stale; the balance loop stops initiating.
        """
        self.enabled = False
        for peer in self.peers.peers():
            self.host.control.send(
                peer.local_ip, CONDUCTOR_PORT, {"op": "leave"}, size=32
            )
        self.peers.clear()  # stop heartbeating to anyone
        self.host.control.unregister(CONDUCTOR_PORT)

    def load_info(self) -> LoadInfo:
        return LoadInfo(
            node_name=self.host.name,
            local_ip=self.host.local_ip,
            cpu_percent=self.monitor.current_load(),
            nprocs=len(self.managed),
            timestamp=self.env.now,
            asleep=self.asleep,
        )

    # -- protocol handler ----------------------------------------------------------
    def _handle(self, body: dict, src_ip: IPAddr, respond) -> None:
        op = body.get("op")
        if op == "heartbeat":  # the most frequent op, by far
            info = body["info"]
            self.peers.update(info)
            self.detector.heard_from(info.local_ip, info.node_name)
        elif op == "discover":
            # Mutual exchange: learn the prober, tell it about us.
            self.peers.update(body["info"])
            self.detector.heard_from(body["info"].local_ip, body["info"].node_name)
            if respond:
                respond({"info": self.load_info()})
        elif op == "reserve":
            ok = not self.asleep and self.admission.try_reserve(body["sender"])
            if not ok:
                self.reserve_rejections += 1
            tr = self.env.tracer
            if tr.enabled:
                tr.event(
                    "cond.reserve",
                    node=self.host.name,
                    sender=body["sender"],
                    granted=ok,
                )
            if respond:
                respond({"ok": ok, "info": self.load_info()})
        elif op == "release":
            who = body["sender"]
            tr = self.env.tracer
            if tr.enabled:
                tr.event(
                    "cond.release",
                    node=self.host.name,
                    sender=who,
                    committed=body.get("committed", True),
                )
            if who in self.admission.holders:
                self.admission.release(who, start_calm_down=body.get("committed", True))
            if body.get("committed") and body.get("pid") is not None:
                proc = self.host.kernel.processes.get(body["pid"])
                if proc is not None:
                    self.manage(proc)
                    self.migrations_received += 1
            if respond:
                respond({"ok": True})
        elif op == "leave":
            self.peers.remove(src_ip)
            self.detector.forget(src_ip)
            if respond:
                respond({"ok": True})
        else:
            if respond:
                respond(f"conductor: unknown op {op!r}", error=True)

    # -- daemon loops -----------------------------------------------------------------
    def _discover(self):
        """Scan the local network for other conductor nodes."""
        for ip in self.scan_ips:
            try:
                reply = yield self.host.control.rpc(
                    ip,
                    CONDUCTOR_PORT,
                    {"op": "discover", "info": self.load_info()},
                    size=128,
                    timeout=PEER_RPC_TIMEOUT,
                )
                self.peers.update(reply["info"])
            except Exception:
                continue  # nobody answering on that address

    def _heartbeat_loop(self):
        # Jitter each period by ±HEARTBEAT_JITTER, from a per-node
        # seeded stream (same deterministic-hash trick as the balance
        # loop's phase offset): conductors drift apart instead of
        # heartbeating in lockstep, yet every run replays identically.
        import zlib

        import numpy as np

        jitter_rng = np.random.default_rng(
            zlib.crc32(self.host.local_ip.value.encode())
        )
        send = self.host.control.send
        while True:
            for u in jitter_rng.random(JITTER_BLOCK).tolist():
                period = HEARTBEAT_INTERVAL * (
                    1.0 + HEARTBEAT_JITTER * (2.0 * u - 1.0)
                )
                yield self.env.timeout(period)
                self.peers.prune_stale(self.env.now)
                self.detector.check()
                info = self.load_info()
                peers = self.peers.peers()
                tr = self.env.tracer
                if tr.enabled:
                    tr.event(
                        "cond.heartbeat",
                        node=self.host.name,
                        cpu=info.cpu_percent,
                        nprocs=info.nprocs,
                        peers=len(peers),
                    )
                # One body for every peer: no handler mutates a one-way
                # message.
                body = {"op": "heartbeat", "info": info}
                for peer in peers:
                    send(peer.local_ip, CONDUCTOR_PORT, body, size=96)

    def _balance_loop(self):
        # Small phase offset so conductors don't act in lockstep —
        # derived from the node's address with a *deterministic* hash
        # (Python's str hash is randomized per process, which would make
        # whole experiments unreproducible).
        import zlib

        phase = (
            (zlib.crc32(self.host.local_ip.value.encode()) % 997)
            / 997
            * self.config.check_interval
        )
        yield self.env.timeout(phase)
        while True:
            yield self.env.timeout(self.config.check_interval)
            if not self.enabled:
                continue
            # One planner round: snapshot the cluster model, consult the
            # strategy, execute the plan through admission/retry.
            yield from self.planner.round()

    def _try_migrate(
        self, proc: SimProcess, candidates: list[LoadInfo], cause: int = 0
    ):
        """Walk the ranked candidates with retry-with-backoff.

        A failed attempt normally leaves the process safe on the source
        (the engine rolled back), so recovery is policy: back off,
        consult the failure detector again, and try the next candidate,
        until the retry budget runs out.  A failed post-copy attempt has
        nothing to roll back to once execution moved: the walk stops and
        management follows the process to the destination.  A reserve
        that goes unanswered also burns an attempt — that silence is
        exactly what a dead destination looks like before the detector
        has declared it.

        ``cause`` is the causal id of the plan action that requested the
        migration (0 = none); in the trace the recovery decisions and
        the launch decision chain back to it.

        Returns an outcome dict for the planner's accounting:
        ``{"success", "attempts", "reserved"}`` — ``attempts`` counts
        *failed* attempts that burned retry budget, so a clean first-try
        migration reports ``attempts == 0``.
        """
        me = self.host.name
        if not self.admission.try_reserve(me):
            return {"success": False, "attempts": 0, "reserved": False}
        tr = self.env.tracer
        attempt = 0
        failed = 0
        landed = False
        for candidate in candidates:
            if attempt >= DEFAULT_RETRY.max_attempts:
                break
            if attempt > 0:
                delay = DEFAULT_RETRY.backoff(attempt - 1)
                if tr.enabled:
                    tr.event(
                        "recover.backoff",
                        caused_by=cause,
                        node=me,
                        pid=proc.pid,
                        attempt=attempt,
                        delay=delay,
                    )
                yield self.env.timeout(delay)
            if not self.detector.usable(candidate.local_ip):
                if tr.enabled:
                    tr.event(
                        "recover.skip",
                        caused_by=cause,
                        node=me,
                        pid=proc.pid,
                        dest=candidate.node_name,
                        state=self.detector.state(candidate.local_ip),
                    )
                continue
            try:
                reply = yield self.host.control.rpc(
                    candidate.local_ip,
                    CONDUCTOR_PORT,
                    {"op": "reserve", "sender": me},
                    size=96,
                    timeout=PEER_RPC_TIMEOUT,
                )
            except Exception:
                attempt += 1
                failed += 1
                self.retries_total += 1
                if tr.enabled:
                    tr.event(
                        "recover.retry",
                        caused_by=cause,
                        node=me,
                        pid=proc.pid,
                        attempt=attempt,
                        dest=candidate.node_name,
                        error="reserve unanswered",
                    )
                continue
            self.detector.heard_from(candidate.local_ip, candidate.node_name)
            self.peers.update(reply["info"])
            if not reply["ok"]:
                # Busy, not broken: next candidate, no budget burned.
                continue
            # Phase 2: committed — run the live migration.
            dest = self.resolve_host(candidate.local_ip)
            self.migrations_initiated += 1
            engine = LiveMigrationEngine(self.host, dest, proc, self.config.migration)
            session = engine.session.label
            if tr.enabled:
                # Seed the session's causal chain: mig.start (and the
                # whole migration DAG under it) links back to this
                # launch decision, which links back to the plan action.
                engine.session.causal_ref = tr.event(
                    "cond.decision",
                    caused_by=cause,
                    ref=True,
                    node=me,
                    pid=proc.pid,
                    session=session,
                    proc=proc.name,
                    dest=dest.name,
                    attempt=attempt,
                )
            report: MigrationReport = yield engine.start()
            landed = proc.kernel is not self.host.kernel
            self.events.append(
                MigrationEvent(
                    time=self.env.now,
                    pid=proc.pid,
                    process_name=proc.name,
                    source=me,
                    destination=dest.name,
                    freeze_time=report.freeze_time,
                    success=report.success,
                    session=session,
                )
            )
            # Release the receiver's slot either way; only a committed
            # release (the process runs there now) transfers management
            # of the process to it.
            self.host.control.send(
                candidate.local_ip,
                CONDUCTOR_PORT,
                {
                    "op": "release",
                    "sender": me,
                    "committed": landed,
                    "pid": proc.pid,
                },
                size=96,
            )
            if report.success:
                self.unmanage(proc)
                self.admission.release(me, start_calm_down=True)
                return {"success": True, "attempts": attempt, "reserved": True}
            attempt += 1
            failed += 1
            if landed:
                # No rollback: there is nothing left to retry from here.
                self.unmanage(proc)
                break
            self.retries_total += 1
            if tr.enabled:
                tr.event(
                    "recover.retry",
                    caused_by=cause,
                    node=me,
                    pid=proc.pid,
                    session=session,
                    attempt=attempt,
                    dest=dest.name,
                    error=report.error,
                )
        if failed:
            self.giveups_total += 1
            if tr.enabled:
                tr.event(
                    "recover.giveup",
                    caused_by=cause,
                    node=me,
                    pid=proc.pid,
                    attempts=attempt,
                )
        # Nobody accepted (or nothing landed): abort our own reservation
        # without calm-down — the process is still here to balance —
        # unless a failed post-copy left it on the destination.
        self.admission.release(me, start_calm_down=landed)
        return {"success": False, "attempts": attempt, "reserved": True}


def install_conductor(
    host: Host,
    scan_ips: list[IPAddr],
    resolve_host: Callable[[IPAddr], Host],
    config: Optional[ConductorConfig] = None,
    monitors: Optional[Cohort] = None,
) -> Conductor:
    """Install (or fetch) the conductor on a host; its load monitor
    joins ``monitors``, a cohort of period ``MONITOR_INTERVAL``, if one
    is given."""
    daemon = host.daemons.get("conductor")
    if daemon is None:
        daemon = Conductor(host, scan_ips, resolve_host, config, monitors)
        host.daemons["conductor"] = daemon
    return daemon
