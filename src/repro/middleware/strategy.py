"""Pluggable decision-engine strategies and the multi-migration planner.

The paper's decision engine is one hardcoded sender-initiated threshold
loop.  This module splits it into three replaceable layers:

- :class:`ClusterModel` — an immutable per-round snapshot of everything
  a decision can legally depend on: the local load, the peer database's
  latest heartbeats (with the *staleness guard* applied — peers whose
  heartbeat is older than ``ConductorConfig.plan_staleness`` are
  reported but never ranked), failure-detector verdicts, per-process
  CPU shares, admission headroom and a rolling per-node load history.
  The costly fields are computed on first read, and the planner forces
  the unread ones before anything can change them, so a round pays only
  for what its strategy reads and still sees one snapshot.
- :class:`Strategy` — consumes a model, emits a ranked
  :class:`MigrationPlan` of :class:`MigrationAction`\\ s
  ``(proc, source, candidates, score, not_before)``.  Strategies are
  *pure* deciders: they never touch sockets, admission or the wire.
- :class:`Planner` — executes plans through the conductor's existing
  machinery: capacity-N admission, failure-detector veto, two-phase
  reserve and retry-with-backoff.  Actions whose ``not_before`` lies in
  the future are parked and re-validated when due; actions racing
  admission exhaustion are dropped (and show up in the ``planner.*``
  counters / ``plan.*`` trace events rather than silently vanishing).
  A plan may also carry a power action for the local node (``sleep`` /
  ``wake``), which the planner applies, counts and traces.

Four strategies ship in the registry:

- ``paper-threshold`` — the paper's Section-IV loop, extracted verbatim
  from the old ``Conductor._balance_loop``.  With the default
  ``ConductorConfig`` it makes the same decisions as that loop (same
  policy evaluation order, same rng draws); like every strategy, its
  rounds are traced as ``plan.*`` records.
- ``workload-balance-to-average`` — move the *minimum set* of processes
  that brings this node within a band of the cluster mean; emits
  multi-action plans and spreads them over distinct receivers.
- ``cycle-aware`` — detect periodic load from the sampled history
  (autocorrelation, after Baruchi et al.'s workload-cycle scheduling)
  and defer non-urgent actions into the next forecast trough; deferred
  actions are re-validated at execution time, so triggers caused by a
  transient peak simply evaporate.
- ``consolidate`` — power management (the paper's Section-VIII future
  work): below a low-water mark the least-loaded node drains its
  processes onto its peers and sleeps; load above a wake mark wakes a
  sleeping node.  Otherwise it runs the paper's threshold rule.

Authoring guide: docs/strategies.md.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from .detector import ALIVE
from .loadinfo import LoadInfo
from .policies import (
    LocationPolicy,
    PolicyConfig,
    SelectionPolicy,
    TransferPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..oskern import SimProcess
    from .conductor import Conductor, ConductorConfig

__all__ = [
    "NodeView",
    "ClusterModel",
    "MigrationAction",
    "MigrationPlan",
    "Strategy",
    "PaperThresholdStrategy",
    "BalanceToAverageStrategy",
    "CycleAwareStrategy",
    "ConsolidateStrategy",
    "Planner",
    "STRATEGIES",
    "register_strategy",
    "make_strategy",
]

#: Samples of per-node load history the planner retains for strategies
#: (at one sample per balance round, ~4 minutes at the default period).
HISTORY_SAMPLES = 256
#: Ranked receiver candidates a migration action tries.
MAX_CANDIDATES = 3


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NodeView:
    """One node as the decision plane sees it this round."""

    name: str
    ip: object
    cpu_percent: float
    nprocs: int
    #: Seconds since this node's figures were taken (0 for the local node).
    heartbeat_age: float
    #: Failure-detector verdict: ``alive`` / ``suspect`` / ``dead``.
    health: str = ALIVE
    is_self: bool = False
    #: Powered down by the ``consolidate`` strategy (heartbeats go on).
    asleep: bool = False

    @property
    def usable(self) -> bool:
        return self.health == ALIVE


@dataclass
class ClusterModel:
    """Snapshot handed to a strategy; everything a plan may depend on.

    Built once per balance round by the :class:`Planner`.  ``peers`` /
    ``peer_infos`` contain only *rankable* peers — the staleness guard
    has already dropped entries whose heartbeat age exceeds the window
    (they are listed in ``stale_peers`` for observability), and sleeping
    peers are never candidates (they are listed in ``asleep_peers``).
    ``average`` is the paper's approximation over all known *awake*
    peers plus the local node, as the pre-refactor loop computed it.

    The planner builds ``peers``, ``stale_peers``, ``asleep_peers``,
    ``shares`` and ``history`` on first read (:meth:`lazy`) and
    :meth:`force`\\ s the rest before the round can yield, so every
    field describes the same instant.  Constructed directly, a model
    holds the values it was given.
    """

    now: float
    local: NodeView
    #: Rankable peers (fresh heartbeat, awake), sorted by node name.
    peers: list[NodeView]
    #: Heartbeats too old to rank (known but excluded by the guard).
    stale_peers: list[NodeView]
    #: The raw heartbeat records behind ``peers`` (same order) — these
    #: are what actions carry as candidates.
    peer_infos: list[LoadInfo]
    #: Approximated cluster-wide average CPU including this node.
    average: float
    #: ``(process, cpu-share %)`` for migratable local processes
    #: (managed, not already outbound, no stranded pages).
    shares: list[tuple["SimProcess", float]]
    #: Admission units a plan may consume this round (always >= 1 when
    #: the planner consults the strategy at all).
    max_actions: int
    #: Capacity-1 conductors run one blocking migration per round.
    sequential: bool
    config: PolicyConfig
    #: Per-node rolling ``(time, cpu%)`` samples, newest last.  The
    #: local node's series is sampled every balance round; peers at
    #: their heartbeat cadence.
    history: dict[str, Sequence[tuple[float, float]]] = dataclass_field(
        default_factory=dict
    )
    #: Fresh peers that are asleep, sorted by node name.
    asleep_peers: list[NodeView] = dataclass_field(default_factory=list)

    @property
    def overload(self) -> float:
        """Local excess over the cluster average (may be negative)."""
        return self.local.cpu_percent - self.average

    @classmethod
    def lazy(
        cls, thunks: dict[str, Callable[[], Any]], **fields: Any
    ) -> "ClusterModel":
        """A model whose fields named in ``thunks`` are computed by them
        on first read; ``fields`` gives every other field."""
        model = cls.__new__(cls)
        vars(model).update(fields)
        model._thunks = thunks
        return model

    def force(self) -> None:
        """Compute every field not read yet, so that later changes to
        the node and its peers cannot reach this snapshot."""
        for name in list(getattr(self, "_thunks", ())):
            getattr(self, name)


class _Lazy:
    """A :class:`ClusterModel` field computed on first read.

    A non-data descriptor: the computed value goes into the instance
    dict, which shadows the descriptor from then on — as does the value
    a directly constructed model is given.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, model, owner=None):
        if model is None:
            return self
        value = model._thunks.pop(self.name)()
        vars(model)[self.name] = value
        return value


# Installed after the dataclass is built, which would otherwise take a
# class attribute for the field's default.
for _name in ("peers", "stale_peers", "asleep_peers", "shares", "history"):
    setattr(ClusterModel, _name, _Lazy(_name))
del _name


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------
@dataclass
class MigrationAction:
    """One planned migration: a process, where from, where to.

    ``candidates`` is the ranked receiver list (best first) the
    conductor's retry machinery walks; it may be empty (the paper's
    loop reserves-then-aborts in that case, and the planner preserves
    that).  ``not_before`` defers execution: the planner parks the
    action and re-validates it when the time comes.
    """

    proc: "SimProcess"
    source: str
    candidates: tuple[LoadInfo, ...] = ()
    #: Strategy-assigned ranking score (CPU share the action moves, by
    #: convention — higher = more load shifted).
    score: float = 0.0
    #: Earliest simulated time this action should execute (0 = now).
    not_before: float = 0.0
    #: Causal id of this action's ``plan.action`` trace record (0 when
    #: tracing is off); fate records and the launched session chain
    #: back to it.
    causal_ref: int = 0

    @property
    def destination(self) -> Optional[LoadInfo]:
        return self.candidates[0] if self.candidates else None


@dataclass
class MigrationPlan:
    """A ranked batch of actions emitted by one strategy consultation,
    plus an optional power action (``"sleep"`` / ``"wake"``) for the
    local node."""

    strategy: str
    created_at: float
    actions: list[MigrationAction] = dataclass_field(default_factory=list)
    power: Optional[str] = None

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __bool__(self) -> bool:
        return bool(self.actions)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
class Strategy:
    """Decision strategy protocol: model in, ranked plan out.

    Implementations must be deterministic given the model and their own
    (explicitly seeded) rng, and must not perform side effects — the
    planner owns execution.  Duck typing suffices; subclassing this
    base is a convenience, not a requirement (a strategy without
    :meth:`may_act` is consulted every round).
    """

    name = "?"

    def may_act(self, local: float, average: float) -> bool:
        """Could :meth:`plan` emit anything at this local load and
        cluster average?  False promises an empty plan (no actions, no
        power action) that draws no randomness and changes no state, so
        the planner settles the round without building a model."""
        return True

    def plan(self, model: ClusterModel) -> MigrationPlan:
        raise NotImplementedError

    def revalidate(self, action: MigrationAction, model: ClusterModel) -> bool:
        """Is a *deferred* action still worth executing?  Called by the
        planner when ``not_before`` arrives; structural checks (process
        still managed, candidates still alive) have already passed."""
        return True

    def rerank(
        self, action: MigrationAction, model: ClusterModel
    ) -> tuple[LoadInfo, ...]:
        """Candidate order for a *deferred* action at execution time.
        The default keeps the plan-time ranking; strategies that park
        actions long enough for the ranking to rot may reorder here."""
        return action.candidates


class PaperThresholdStrategy(Strategy):
    """The paper's Section-IV decision loop, as a strategy.

    Extracted from the old ``Conductor._balance_loop`` /
    ``_launch_batch`` so that the default configuration reproduces the
    pre-refactor behaviour — and traces — byte-identically: the same
    transfer-threshold gate, the same selection-then-location policy
    evaluation order (which also preserves rng draw order for
    stochastic policy overrides), the same batch bookkeeping against
    remaining admission capacity.
    """

    name = "paper-threshold"

    def __init__(
        self,
        config: PolicyConfig,
        *,
        transfer: Optional[TransferPolicy] = None,
        location: Optional[LocationPolicy] = None,
        selection: Optional[SelectionPolicy] = None,
    ) -> None:
        self.config = config
        self.transfer = transfer or TransferPolicy(config)
        self.location = location or LocationPolicy(config)
        self.selection = selection or SelectionPolicy(config)

    def may_act(self, local: float, average: float) -> bool:
        return self.transfer.should_initiate(local, average)

    def plan(self, model: ClusterModel) -> MigrationPlan:
        plan = MigrationPlan(self.name, model.now)
        cfg = self.config
        local = model.local.cpu_percent
        average = model.average
        if not self.transfer.should_initiate(local, average):
            return plan
        target_diff = local - average
        if model.sequential:
            # Paper semantics: one migration per balance round.
            proc = self.selection.choose(
                max(target_diff, cfg.min_share), model.shares
            )
            if proc is None:
                return plan
            candidates = self.location.choose(local, average, model.peer_infos)
            plan.actions.append(
                MigrationAction(
                    proc,
                    model.local.name,
                    tuple(candidates),
                    score=target_diff,
                )
            )
            return plan
        # Batch mode: up to the admission headroom actions, repeatedly
        # picking the process that best matches the *remaining* excess.
        remaining = target_diff
        avail = list(model.shares)
        for _ in range(model.max_actions):
            proc = self.selection.choose(max(remaining, cfg.min_share), avail)
            if proc is None:
                return plan
            candidates = self.location.choose(local, average, model.peer_infos)
            if not candidates:
                return plan
            share = next(s for p, s in avail if p is proc)
            remaining -= share
            avail = [(p, s) for p, s in avail if p is not proc]
            plan.actions.append(
                MigrationAction(
                    proc, model.local.name, tuple(candidates), score=share
                )
            )
        return plan


class BalanceToAverageStrategy(Strategy):
    """Bring this node within a band of the cluster mean, in one plan.

    Where the paper moves exactly one difference-matched process per
    round, this strategy computes the local *excess* over the mean and
    greedily picks the smallest set of processes (largest eligible
    share first, never overshooting past ``band`` below the mean) whose
    departure lands the node inside ``mean ± band``.  Each action gets
    its own receiver, chosen against *projected* receiver loads so one
    multi-migration round does not funnel every process at the same
    peer.  Cluster-wide, every conductor running this strategy pulls
    every node toward the band — tighter distributions than the
    threshold rule, at the price of more (smaller) migrations.
    """

    name = "workload-balance-to-average"

    def __init__(self, config: PolicyConfig, *, band: float = 4.0) -> None:
        if band <= 0:
            raise ValueError("band must be positive")
        self.config = config
        self.band = band

    def may_act(self, local: float, average: float) -> bool:
        return local - average > self.band

    def plan(self, model: ClusterModel) -> MigrationPlan:
        plan = MigrationPlan(self.name, model.now)
        cfg = self.config
        average = model.average
        excess = model.overload
        if excess <= self.band:
            return plan
        # Receivers: rankable peers with room below the average.
        projected = {
            info.local_ip: info.cpu_percent
            for info in model.peer_infos
            if average - info.cpu_percent >= cfg.receiver_margin
        }
        if not projected:
            return plan
        by_ip = {info.local_ip: info for info in model.peer_infos}
        chosen: list[tuple["SimProcess", float]] = []
        for proc, share in sorted(
            model.shares, key=lambda ps: ps[1], reverse=True
        ):
            if excess <= self.band:
                break
            if share < cfg.min_share:
                continue
            if share > excess + self.band:
                continue  # would overshoot past the band below the mean
            chosen.append((proc, share))
            excess -= share
        for proc, share in chosen:
            # Fill the deepest *projected* trough first — raising the
            # cluster minimum is what narrows the spread — among
            # receivers the move would not push past the band.
            ranked = sorted(projected, key=lambda ip: projected[ip])
            candidates = tuple(
                by_ip[ip]
                for ip in ranked
                if projected[ip] + share <= average + self.band
            )
            if not candidates:
                continue
            projected[candidates[0].local_ip] += share
            plan.actions.append(
                MigrationAction(
                    proc, model.local.name, candidates, score=share
                )
            )
        plan.actions.sort(key=lambda a: a.score, reverse=True)
        return plan

    def revalidate(self, action: MigrationAction, model: ClusterModel) -> bool:
        return model.overload > self.band


class CycleAwareStrategy(Strategy):
    """Defer non-urgent migrations into forecast load troughs.

    Wraps an inner strategy (the paper's threshold rule by default) and
    re-times its plans: when the local load history shows a periodic
    cycle (detected by autocorrelation over the planner's sampled
    series) and the trigger is not urgent, actions are stamped with
    ``not_before = next forecast trough`` instead of executing into the
    peak that tripped the threshold.  When the trough arrives the
    planner re-validates: a trigger that was only the cyclic peak
    itself has evaporated by then and the action is dropped — so
    periodic workloads stop paying migration costs (freeze, transfer
    CPU, calm-down) every cycle, while genuine persistent imbalance
    still migrates, just at the cheapest point of the cycle (after
    Baruchi et al., "Exploiting Workload Cycles").

    Urgency bypass: loads at or above ``critical_threshold``, or an
    overload of ``urgent_factor`` times the imbalance threshold,
    execute immediately — deferral must never sit on a saturated node.
    """

    name = "cycle-aware"

    def __init__(
        self,
        config: PolicyConfig,
        *,
        inner: Optional[Strategy] = None,
        min_cycles: float = 2.5,
        min_autocorr: float = 0.35,
        urgent_factor: float = 2.0,
        mean_margin: Optional[float] = None,
        max_defer: Optional[float] = None,
    ) -> None:
        self.config = config
        self.inner = inner or PaperThresholdStrategy(config)
        self.min_cycles = min_cycles
        self.min_autocorr = min_autocorr
        self.urgent_factor = urgent_factor
        #: Cycle-mean excess over the average that keeps a deferred
        #: action alive at revalidation.  Tighter than the instantaneous
        #: imbalance threshold (half of it by default) because the
        #: cycle-mean carries no periodic noise — a structural excess of
        #: even one process share should still be corrected, just at the
        #: cheap point of the cycle.
        self.mean_margin = (
            mean_margin
            if mean_margin is not None
            else config.imbalance_threshold / 2.0
        )
        #: Cap on how far ahead an action may be deferred (defaults to
        #: one detected period).
        self.max_defer = max_defer
        #: Last detection result, for observability: (period_s, autocorr).
        self.last_cycle: Optional[tuple[float, float]] = None

    # -- cycle detection ---------------------------------------------------
    def detect_cycle(
        self, samples: Sequence[tuple[float, float]]
    ) -> Optional[tuple[float, float]]:
        """Dominant period in a (time, load) series, by autocorrelation.

        Returns ``(period_seconds, autocorrelation)`` or ``None`` when
        the series is too short or shows no cycle stronger than
        ``min_autocorr``.  The series is treated as uniformly sampled
        at its median spacing (the balance loop's cadence).
        """
        import numpy as np

        if len(samples) < 8:
            return None
        times = np.asarray([t for t, _ in samples], dtype=float)
        values = np.asarray([v for _, v in samples], dtype=float)
        dt = float(np.median(np.diff(times)))
        if dt <= 0:
            return None
        x = values - values.mean()
        power = float(np.dot(x, x))
        if power <= 1e-12:
            return None  # flat series: no cycle
        n = len(x)
        max_lag = int(n / self.min_cycles)
        if max_lag < 3:
            return None
        # Normalize each lag by its overlap so long lags aren't biased
        # down, and search only past the first zero-crossing — a smooth
        # series correlates strongly with itself at tiny lags, which is
        # persistence, not periodicity.
        ac = np.array(
            [
                float(np.dot(x[:-lag], x[lag:])) / power * (n / (n - lag))
                for lag in range(1, max_lag)
            ]
        )
        below = np.nonzero(ac < 0)[0]
        if len(below) == 0:
            return None
        start = below[0]
        best = start + int(np.argmax(ac[start:]))
        best_lag, best_ac = best + 1, float(ac[best])
        if best_ac < self.min_autocorr:
            return None
        return best_lag * dt, best_ac

    def forecast_trough(
        self, samples: Sequence[tuple[float, float]], now: float
    ) -> Optional[float]:
        """Next time the local load should bottom out, or ``None``."""
        cycle = self.detect_cycle(samples)
        self.last_cycle = cycle
        if cycle is None:
            return None
        period, _ac = cycle
        # Phase: the minimum-load sample within the last full period.
        recent = [s for s in samples if s[0] >= now - period]
        if not recent:
            return None
        t_min = min(recent, key=lambda s: s[1])[0]
        trough = t_min + period
        while trough <= now:
            trough += period
        horizon = self.max_defer if self.max_defer is not None else period
        if trough - now > horizon:
            return None
        return trough

    # -- the strategy ------------------------------------------------------
    def _urgent(self, model: ClusterModel) -> bool:
        cfg = self.config
        if model.local.cpu_percent >= cfg.critical_threshold:
            return True
        return model.overload >= self.urgent_factor * cfg.imbalance_threshold

    def may_act(self, local: float, average: float) -> bool:
        # Without inner actions there is nothing to re-time.
        may_act = getattr(self.inner, "may_act", None)
        return may_act is None or may_act(local, average)

    def plan(self, model: ClusterModel) -> MigrationPlan:
        inner = self.inner.plan(model)
        plan = MigrationPlan(self.name, model.now, inner.actions)
        if not plan.actions or self._urgent(model):
            return plan
        samples = model.history.get(model.local.name, ())
        trough = self.forecast_trough(samples, model.now)
        if trough is not None:
            for action in plan.actions:
                action.not_before = trough
        return plan

    def node_mean(
        self, model: ClusterModel, name: str, fallback: float
    ) -> float:
        """A node's load averaged over the last detected period (falls
        back to ``fallback`` without history)."""
        samples = model.history.get(name, ())
        period = self.last_cycle[0] if self.last_cycle else None
        if period is not None:
            samples = [s for s in samples if s[0] >= model.now - period]
        if not samples:
            return fallback
        return sum(v for _, v in samples) / len(samples)

    def cycle_mean(self, model: ClusterModel) -> float:
        """Local load averaged over the last detected period."""
        return self.node_mean(model, model.local.name, model.local.cpu_percent)

    def revalidate(self, action: MigrationAction, model: ClusterModel) -> bool:
        # A deferred trigger must still hold *for the cycle mean*, not
        # the instant: at the trough every node is transiently below
        # the average, so the instantaneous rule would drop genuinely
        # persistent imbalance along with the peak-driven noise.  The
        # cycle-mean separates them — a node carrying structural excess
        # stays above the threshold on average, a node that merely
        # peaked does not.
        if isinstance(self.inner, PaperThresholdStrategy):
            mean = self.cycle_mean(model)
            if mean >= self.config.critical_threshold:
                return True
            return mean - model.average >= self.mean_margin
        return self.inner.revalidate(action, model)

    def rerank(
        self, action: MigrationAction, model: ClusterModel
    ) -> tuple[LoadInfo, ...]:
        # The plan-time ranking compared *instantaneous* loads — at
        # execution time (the trough) those ranks are mostly phase
        # noise.  Judge each candidate by its cycle-mean instead, so the
        # structurally light node ranks first and the excess actually
        # lands instead of hot-potatoing to whichever peer happened to
        # be mid-trough when the plan was made.
        return tuple(
            sorted(
                action.candidates,
                key=lambda c: self.node_mean(
                    model, c.node_name, c.cpu_percent
                ),
            )
        )


class ConsolidateStrategy(Strategy):
    """Power management by consolidation (the paper's Section-VIII
    future work).

    Consolidation is the trough side of cycle-aware orchestration:
    when the cluster is quiet, pack the work onto fewer nodes and power
    the rest down; when load returns, wake them and balance again.

    - *Power mode* holds while the average over awake nodes is below
      ``low_watermark`` and no awake node is above ``wake_watermark``.
      In it, only the least-loaded awake node (ties broken by name)
      plans: one action per managed process, each ranked over the awake
      peers that stay at or below ``target_cap`` after the move, most
      loaded first.  Once it manages nothing, it plans ``sleep``.
    - Out of power mode the inner strategy (the paper's threshold rule)
      plans.  Checking the awake maximum, not only the average, avoids
      a hysteresis trap: a freshly woken idle node halves the average.
    - A sleeping node plans ``wake`` when an awake peer is above
      ``wake_watermark`` and it is the first sleeping node by name, so
      nodes wake one at a time.
    """

    name = "consolidate"

    def __init__(
        self,
        config: PolicyConfig,
        *,
        inner: Optional[Strategy] = None,
        low_watermark: float = 35.0,
        target_cap: float = 75.0,
        wake_watermark: float = 65.0,
    ) -> None:
        self.config = config
        self.inner = inner or PaperThresholdStrategy(config)
        self.low_watermark = low_watermark
        self.target_cap = target_cap
        self.wake_watermark = wake_watermark

    def plan(self, model: ClusterModel) -> MigrationPlan:
        plan = MigrationPlan(self.name, model.now)
        local = model.local
        hot = any(p.cpu_percent > self.wake_watermark for p in model.peers)
        if local.asleep:
            sleepers = [local.name] + [p.name for p in model.asleep_peers]
            if hot and min(sleepers) == local.name:
                plan.power = "wake"
            return plan
        if (
            hot
            or local.cpu_percent > self.wake_watermark
            or model.average >= self.low_watermark
        ):
            plan.actions = self.inner.plan(model).actions
            return plan
        awake = [local, *model.peers]
        if not model.peers or min(
            awake, key=lambda v: (v.cpu_percent, v.name)
        ) is not local:
            return plan
        if local.nprocs == 0:
            plan.power = "sleep"
            return plan
        projected = {info.local_ip: info.cpu_percent for info in model.peer_infos}
        for proc, share in model.shares:
            ranked = sorted(
                model.peer_infos,
                key=lambda i: (-projected[i.local_ip], i.node_name),
            )
            candidates = tuple(
                i for i in ranked if projected[i.local_ip] + share <= self.target_cap
            )
            if not candidates:
                continue
            projected[candidates[0].local_ip] += share
            plan.actions.append(
                MigrationAction(proc, local.name, candidates, score=share)
            )
        return plan


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
#: name -> factory(config: ConductorConfig, rng) -> Strategy.  The rng is
#: the conductor's per-node seeded stream (derived from
#: ``ConductorConfig.seed`` and the node address), so stochastic
#: strategies stay trace-deterministic without reaching for module-level
#: randomness.
STRATEGIES: dict[str, Callable[..., Strategy]] = {}


def register_strategy(name: str):
    """Decorator: register a strategy factory under ``name``."""

    def deco(factory: Callable[..., Strategy]):
        if name in STRATEGIES:
            raise ValueError(f"strategy {name!r} already registered")
        STRATEGIES[name] = factory
        return factory

    return deco


def make_strategy(
    name: str, config: "ConductorConfig", rng=None
) -> Strategy:
    """Instantiate a registered strategy for one conductor.

    ``config.strategy_params`` is forwarded to the factory as keyword
    arguments; ``rng`` is the conductor's seeded per-node stream.
    """
    factory = STRATEGIES.get(name)
    if factory is None:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(f"unknown strategy {name!r} (known: {known})")
    return factory(config, rng, **dict(config.strategy_params))


@register_strategy("paper-threshold")
def _make_paper(config: "ConductorConfig", rng, **params) -> Strategy:
    policies = config.policies
    return PaperThresholdStrategy(
        policies,
        location=config.location_policy or LocationPolicy(policies),
        selection=config.selection_policy or SelectionPolicy(policies),
        **params,
    )


@register_strategy("workload-balance-to-average")
def _make_balance(config: "ConductorConfig", rng, **params) -> Strategy:
    return BalanceToAverageStrategy(config.policies, **params)


@register_strategy("cycle-aware")
def _make_cycle_aware(config: "ConductorConfig", rng, **params) -> Strategy:
    return CycleAwareStrategy(config.policies, **params)


@register_strategy("consolidate")
def _make_consolidate(config: "ConductorConfig", rng, **params) -> Strategy:
    # The inner rule honours the conductor's policy overrides.
    return ConsolidateStrategy(
        config.policies, inner=_make_paper(config, rng), **params
    )


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------
class Planner:
    """Executes strategy plans through the conductor's machinery.

    One per conductor.  Each balance round the strategy can act in (see
    :meth:`Strategy.may_act`), it snapshots a :class:`ClusterModel`,
    consults the strategy, and walks the plan's
    actions in rank order: due actions run through the conductor's
    two-phase reserve / detector veto / retry path, future-dated
    actions are parked until ``not_before``, and actions that race
    admission-capacity exhaustion are dropped and re-planned on a later
    round.  A plan's power action puts the conductor to sleep or wakes
    it.  Every fate and power action is counted (``planner.*``) and,
    whenever tracing is on, traced (``plan.*``).
    """

    def __init__(self, conductor: "Conductor", strategy: Strategy) -> None:
        self.cond = conductor
        self.strategy = strategy
        self.env = conductor.env
        cfg = conductor.config
        #: Heartbeat-age window beyond which peers are not ranked.
        self.staleness = (
            cfg.plan_staleness
            if cfg.plan_staleness is not None
            else cfg.peer_stale_timeout
        )
        self._history: defaultdict[str, deque] = defaultdict(
            lambda: deque(maxlen=HISTORY_SAMPLES)
        )
        self._deferred: list[MigrationAction] = []
        # planner.* counters.
        self.plans_total = 0
        self.actions_total = 0
        self.executed_total = 0
        self.retried_total = 0
        self.vetoed_total = 0
        self.aborted_total = 0
        self.deferred_total = 0
        self.dropped_total = 0
        self.stale_skipped_total = 0
        self.sleeps_total = 0
        self.wakes_total = 0

        metrics = self.env.metrics
        if metrics is not None:
            node = conductor.host.name
            for suffix, fn in [
                ("plans", lambda: self.plans_total),
                ("actions", lambda: self.actions_total),
                ("executed", lambda: self.executed_total),
                ("retried", lambda: self.retried_total),
                ("vetoed", lambda: self.vetoed_total),
                ("aborted", lambda: self.aborted_total),
                ("deferred", lambda: self.deferred_total),
                ("dropped", lambda: self.dropped_total),
                ("stale_skipped", lambda: self.stale_skipped_total),
                ("sleeps", lambda: self.sleeps_total),
                ("wakes", lambda: self.wakes_total),
                ("pending", lambda: len(self._deferred)),
            ]:
                metrics.gauge(f"planner.{node}.{suffix}", fn=fn)

    # -- model building ----------------------------------------------------
    def build_model(self, local: float, average: float) -> ClusterModel:
        """Snapshot the cluster as this round's strategies may see it.

        The peer views, process shares and history copy are built on
        first read: a quiet round reads none of them.  The caller
        :meth:`~ClusterModel.force`\\ s the model before it yields.
        """
        cond = self.cond
        now = self.env.now
        fresh_infos, stale_infos = cond.peers.partition_fresh(
            now, self.staleness
        )
        self.stale_skipped_total += len(stale_infos)
        awake_infos = [i for i in fresh_infos if not i.asleep]
        health = cond.detector.state

        def views(infos: list[LoadInfo]) -> Callable[[], list[NodeView]]:
            return lambda: [
                NodeView(
                    name=info.node_name,
                    ip=info.local_ip,
                    cpu_percent=info.cpu_percent,
                    nprocs=info.nprocs,
                    heartbeat_age=info.age(now),
                    health=health(info.local_ip),
                    asleep=info.asleep,
                )
                for info in infos
            ]

        local_view = NodeView(
            name=cond.host.name,
            ip=cond.host.local_ip,
            cpu_percent=local,
            nprocs=len(cond.managed),
            heartbeat_age=0.0,
            health=ALIVE,
            is_self=True,
            asleep=cond.asleep,
        )
        sequential = cond.config.admission_capacity == 1
        return ClusterModel.lazy(
            {
                "peers": views(awake_infos),
                "stale_peers": views(stale_infos),
                "asleep_peers": views([i for i in fresh_infos if i.asleep]),
                "shares": lambda: cond.monitor.process_shares(
                    [
                        p
                        for p in cond.managed
                        if p not in cond._outbound and not p.stranded_pages
                    ]
                ),
                "history": lambda: {
                    k: tuple(v) for k, v in self._history.items()
                },
            },
            now=now,
            local=local_view,
            peer_infos=awake_infos,
            average=average,
            max_actions=1 if sequential else cond.admission.available,
            sequential=sequential,
            config=cond.config.policies,
        )

    def _record_history(self, local: float) -> None:
        history = self._history
        history[self.cond.host.name].append((self.env.now, local))
        for info in self.cond.peers.peers():
            s = history[info.node_name]
            if not s or s[-1][0] < info.timestamp:
                s.append((info.timestamp, info.cpu_percent))

    # -- the round ---------------------------------------------------------
    def round(self):
        """One balance round (generator; the conductor yields from it).

        When nothing is deferred and the strategy's
        :meth:`~Strategy.may_act` says it cannot act, the round is
        settled without a model: it counts the peers the staleness guard
        would have skipped, as :meth:`build_model` does, and ends.
        """
        cond = self.cond
        local = cond.monitor.current_load()
        self._record_history(local)
        if cond.admission.busy or cond.admission.calming or not cond.peers:
            return
        average = cond.peers.cluster_average(local)
        if not self._deferred:
            may_act = getattr(self.strategy, "may_act", None)
            if may_act is not None and not may_act(local, average):
                self.stale_skipped_total += cond.peers.count_stale(
                    self.env.now, self.staleness
                )
                return
        model = self.build_model(local, average)
        if self._deferred:
            # A deferred plan is still in flight: execute what has come
            # due, never stack a fresh consultation on top of it.
            yield from self._run_due(model)
            return
        plan = self.strategy.plan(model)
        if plan.power is not None:
            self._apply_power(plan)
        if not plan.actions:
            return
        self.plans_total += 1
        self.actions_total += len(plan.actions)
        self._trace_plan(plan)
        # Executing changes shares and detector verdicts: freeze the
        # snapshot first.
        model.force()
        if model.sequential:
            yield from self._execute_sequential(plan.actions, model)
        else:
            self._launch_batch(plan.actions)

    # -- execution ---------------------------------------------------------
    def _execute_sequential(
        self, actions: list[MigrationAction], model: ClusterModel
    ):
        cond = self.cond
        first = True
        for action in actions:
            if action.not_before > model.now:
                self._park(action)
                continue
            if not first and cond.admission.available <= 0:
                # Racing our own capacity: a committed migration's
                # calm-down (or a concurrent inbound reserve) consumed
                # the admission mid-plan.
                self._drop(action, "admission")
                continue
            first = False
            outcome = yield from cond._try_migrate(
                action.proc,
                list(action.candidates)[:MAX_CANDIDATES],
                cause=action.causal_ref,
            )
            self._account(action, outcome)

    def _launch_batch(self, actions: list[MigrationAction]) -> None:
        cond = self.cond
        for action in actions:
            if action.not_before > self.env.now:
                self._park(action)
                continue
            if cond.admission.available <= 0:
                self._drop(action, "admission")
                continue
            if not action.candidates:
                self._drop(action, "no-candidates")
                continue
            proc = action.proc
            cond._outbound.add(proc)
            self.env.process(
                self._run_batch_action(action),
                name=f"cond-session-{proc.pid}",
            )

    def _run_batch_action(self, action: MigrationAction):
        cond = self.cond
        try:
            outcome = yield from cond._try_migrate(
                action.proc,
                list(action.candidates)[:MAX_CANDIDATES],
                cause=action.causal_ref,
            )
            self._account(action, outcome)
        finally:
            cond._outbound.discard(action.proc)

    def _run_due(self, model: ClusterModel):
        """Execute parked actions whose ``not_before`` has arrived."""
        cond = self.cond
        due = [a for a in self._deferred if a.not_before <= model.now]
        if not due:
            return
        # Revalidation after the first migration still judges the
        # round's snapshot.
        model.force()
        self._deferred = [a for a in self._deferred if a.not_before > model.now]
        for action in due:
            ok, reason = self._still_valid(action, model)
            if not ok:
                self._drop(action, reason)
                continue
            if cond.admission.available <= 0:
                self._drop(action, "admission")
                continue
            # Re-rank for execution time (strategy hook), then drop
            # dead/stale candidates that fell out of the model while
            # the action was parked.
            live = {info.local_ip for info in model.peer_infos}
            candidates = [
                c
                for c in self.strategy.rerank(action, model)
                if c.local_ip in live
            ]
            outcome = yield from cond._try_migrate(
                action.proc,
                candidates[:MAX_CANDIDATES],
                cause=action.causal_ref,
            )
            self._account(action, outcome)

    def _still_valid(
        self, action: MigrationAction, model: ClusterModel
    ) -> tuple[bool, str]:
        if action.proc not in self.cond.managed:
            return False, "unmanaged"
        if action.proc in self.cond._outbound:
            return False, "in-flight"
        if action.proc.stranded_pages:
            return False, "stranded"
        live = {info.local_ip for info in model.peer_infos}
        if not any(c.local_ip in live for c in action.candidates):
            return False, "no-candidates"
        if not self.strategy.revalidate(action, model):
            return False, "revalidated"
        return True, ""

    # -- bookkeeping -------------------------------------------------------
    def _park(self, action: MigrationAction) -> None:
        self.deferred_total += 1
        self._deferred.append(action)
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "plan.defer",
                caused_by=action.causal_ref,
                node=self.cond.host.name,
                strategy=self.strategy.name,
                pid=action.proc.pid,
                until=action.not_before,
            )

    def _drop(self, action: MigrationAction, reason: str) -> None:
        self.dropped_total += 1
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "plan.drop",
                caused_by=action.causal_ref,
                node=self.cond.host.name,
                strategy=self.strategy.name,
                pid=action.proc.pid,
                reason=reason,
            )

    def _account(self, action: MigrationAction, outcome: dict) -> None:
        kind = classify_outcome(outcome)
        if kind == "executed":
            self.executed_total += 1
        elif kind == "retried":
            self.retried_total += 1
        elif kind == "vetoed":
            self.vetoed_total += 1
        else:
            self.aborted_total += 1
        tr = self.env.tracer
        if tr.enabled:
            dest = action.destination
            tr.event(
                "plan.outcome",
                caused_by=action.causal_ref,
                node=self.cond.host.name,
                strategy=self.strategy.name,
                pid=action.proc.pid,
                dest=dest.node_name if dest is not None else None,
                outcome=kind,
                attempts=outcome.get("attempts", 0),
            )

    def _apply_power(self, plan: MigrationPlan) -> None:
        self.cond.asleep = plan.power == "sleep"
        if self.cond.asleep:
            self.sleeps_total += 1
        else:
            self.wakes_total += 1
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "plan.power",
                node=self.cond.host.name,
                strategy=plan.strategy,
                action=plan.power,
            )

    def _trace_plan(self, plan: MigrationPlan) -> None:
        tr = self.env.tracer
        if not tr.enabled:
            return
        # Each plan.action carries the emitting plan as its parent/cause
        # and gets its own ref; the action's later fate records
        # (defer/drop/outcome) and the conductor's cond.decision link
        # back to it via ``action.causal_ref``.
        plan_ref = tr.event(
            "plan.emitted",
            ref=True,
            node=self.cond.host.name,
            strategy=plan.strategy,
            actions=len(plan.actions),
        )
        for action in plan.actions:
            dest = action.destination
            action.causal_ref = tr.event(
                "plan.action",
                parent=plan_ref,
                caused_by=plan_ref,
                ref=True,
                node=self.cond.host.name,
                strategy=plan.strategy,
                pid=action.proc.pid,
                proc=action.proc.name,
                dest=dest.node_name if dest is not None else None,
                score=action.score,
                not_before=action.not_before,
            )

    @property
    def pending(self) -> list[MigrationAction]:
        """Parked (deferred) actions, for tests and dashboards."""
        return list(self._deferred)


def classify_outcome(outcome: dict) -> str:
    """Fold a ``Conductor._try_migrate`` outcome into the plan-report
    vocabulary: executed / retried / vetoed / aborted."""
    if outcome.get("success"):
        return "executed" if outcome.get("attempts", 0) == 0 else "retried"
    if outcome.get("attempts", 0) == 0:
        return "vetoed"
    return "aborted"
