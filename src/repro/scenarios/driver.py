"""The :class:`ScenarioDriver`: brings a :class:`~repro.scenarios.
primitives.ScenarioSpec` to life against a cluster.

The driver is the workload twin of the fault plane's
:class:`~repro.faults.injector.FaultInjector`: a spec is inert data, the
driver turns it into scheduled client joins/leaves/movement/load against
``dve.space`` zone servers through the DES.  Once per ``spec.tick`` it

1. evaluates the offered population N(t) from the spec's load shapes,
2. evaluates the per-zone popularity weights w(z, t) (plus dependency-
   chain propagation from the lagged weights),
3. allocates the population over zones with deterministic
   largest-remainder rounding,
4. draws connection churn (joins/leaves beyond the population delta)
   from its *one* seeded RNG stream, and
5. pushes the per-zone populations into the zone servers
   (:meth:`~repro.dve.zoneserver.ZoneServer.set_population`), counting a
   zone as *achieved* only while its server's node is reachable — under
   an injected node fault the offered/achieved gap is the outage the
   SLO rules see.

Everything the driver does emits ``scenario.*`` trace events and — when
metrics are enabled — ``scenario.*`` counters/gauges; per-tick series
(offered, achieved, per-zone client counts) land in a
:class:`~repro.des.SeriesBundle` the ``repro-dash`` scenario panel
renders.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..des import Cohort, SeriesBundle
from .primitives import FlashCrowd, ScenarioSpec
from .workload import start_dirtier

if TYPE_CHECKING:
    from ..cluster import Cluster
    from ..dve.space import ZoneGrid
    from ..dve.zoneserver import ZoneServer

__all__ = ["ScenarioDriver", "allocate", "series_prefix"]


def series_prefix(campaign: str = "") -> str:
    """Series-name prefix for scenario telemetry: ``scenario.`` or
    ``scenario.<campaign>.`` — the shape ``repro-dash --campaign``
    filters on."""
    return f"scenario.{campaign}." if campaign else "scenario."


def allocate(spec: ScenarioSpec, offered: int, weights: np.ndarray, t: float) -> np.ndarray:
    """Split ``offered`` clients over the spec's zones at ``t``: targeted
    flash extras first, the remainder by ``weights`` with
    largest-remainder rounding (ties broken by zone id — fully
    deterministic)."""
    counts = np.zeros(spec.n_zones, dtype=int)
    remaining = offered
    for shape in spec.shapes:
        if isinstance(shape, FlashCrowd) and 0 <= shape.zone < len(counts):
            extra = min(remaining, int(round(spec.clients * shape.excess(t))))
            counts[shape.zone] += extra
            remaining -= extra
    if remaining > 0:
        exact = weights * remaining
        base = np.floor(exact).astype(int)
        short = remaining - int(base.sum())
        if short > 0:
            frac = exact - base
            # argsort is stable, so equal fractions favour lower ids.
            for z in np.argsort(-frac, kind="stable")[:short]:
                base[z] += 1
        counts += base
    return counts


class ScenarioDriver:
    """Drives one scenario against ``zone_servers`` (aligned with
    ``grid.zones``) on ``cluster``.

    All randomness — churn draws today, anything a future primitive
    needs — comes from the single ``rng`` stream, which defaults to the
    cluster's seeded ``"scenario"`` stream: one master seed replays the
    same joins, leaves and populations byte for byte.
    """

    def __init__(
        self,
        cluster: "Cluster",
        grid: "ZoneGrid",
        zone_servers: list["ZoneServer"],
        spec: ScenarioSpec,
        *,
        rng: Optional[np.random.Generator] = None,
        campaign: str = "",
    ) -> None:
        if len(zone_servers) != len(grid.zones):
            raise ValueError(
                f"need one zone server per zone: {len(zone_servers)} servers "
                f"for {len(grid.zones)} zones"
            )
        self.cluster = cluster
        self.env = cluster.env
        self.grid = grid
        self.zone_servers = zone_servers
        self.spec = spec
        self.campaign = campaign
        self.rng = rng if rng is not None else cluster.rng.stream("scenario")
        #: Per-tick telemetry for the dash scenario panel.
        self.series = SeriesBundle()
        #: Live accounting (client-seconds for the totals).
        self.ticks = 0
        self.joins_total = 0
        self.leaves_total = 0
        self.offered_client_s = 0.0
        self.achieved_client_s = 0.0
        self.last_offered = 0
        self.last_achieved = 0
        self.dirtier_stats: list[dict] = []
        #: Unmanaged background processes, one per node (spec.background).
        self._bg_procs: list = []
        self._last_total = 0
        #: Per-zone, offered and achieved series, made at the first tick
        #: (a driver that never ticks leaves the bundle empty).
        self._zone_series: list = []
        self._offered_series = None
        self._achieved_series = None
        #: (time, weights) history for dependency-chain lag lookup.
        self._weight_history: deque = deque()
        self._flash_open: set[int] = set()
        self._started = False
        self._t_start = 0.0

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "ScenarioDriver":
        """Spawn the driver loop (and the spec's hot-set dirtiers).
        Call once; the loop runs for ``spec.duration`` seconds."""
        if self._started:
            raise RuntimeError("scenario driver already started")
        self._started = True
        self._t_start = self.env.now
        spec = self.spec

        if spec.hotset is not None:
            cohort = Cohort(self.env, spec.hotset.interval)
            for zs in self.zone_servers:
                self.dirtier_stats.append(
                    start_dirtier(self.env, zs.proc, zs.state_area, spec.hotset, cohort)
                )

        if spec.background is not None:
            for i, node in enumerate(self.cluster.nodes[: spec.nodes]):
                proc = node.kernel.spawn_process(f"background-{node.name}")
                proc.address_space.mmap(4, tag="background")
                node.kernel.cpu.set_demand(
                    proc, spec.background.demand(i, spec.nodes, 0.0)
                )
                self._bg_procs.append((i, node, proc))

        metrics = self.env.metrics
        if metrics is not None:
            metrics.gauge("scenario.offered", fn=lambda: float(self.last_offered))
            metrics.gauge("scenario.achieved", fn=lambda: float(self.last_achieved))
            metrics.gauge(
                "scenario.achieved_ratio", fn=lambda: self.achieved_ratio()
            )

        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "scenario.start",
                campaign=self.campaign or None,
                clients=spec.clients,
                duration=spec.duration,
                zones=spec.n_zones,
                nodes=spec.nodes,
                spec=spec.describe(),
            )
        self.env.process(self._loop(), name="scenario-driver")
        return self

    # -- accounting -------------------------------------------------------------
    def achieved_ratio(self) -> float:
        """Served fraction of offered client-seconds so far (1.0 before
        the first tick)."""
        if self.offered_client_s <= 0:
            return 1.0
        return self.achieved_client_s / self.offered_client_s

    def counters(self) -> dict[str, float]:
        """Flat ``scenario.*`` values for SLO evaluation / BENCH docs."""
        return {
            "scenario.ticks_total": float(self.ticks),
            "scenario.joins_total": float(self.joins_total),
            "scenario.leaves_total": float(self.leaves_total),
            "scenario.offered_client_s": self.offered_client_s,
            "scenario.achieved_client_s": self.achieved_client_s,
            "scenario.achieved_ratio": self.achieved_ratio(),
        }

    # -- the tick ---------------------------------------------------------------
    def _weights_at(self, t: float) -> np.ndarray:
        spec = self.spec
        weights = spec.zones.weights(self.grid, t)
        if spec.chain is not None:
            lagged = None
            cutoff = t - spec.chain.lag
            for ht, hw in self._weight_history:
                if ht <= cutoff:
                    lagged = hw
                else:
                    break
            weights = spec.chain.apply(weights, lagged)
        self._weight_history.append((t, weights))
        while len(self._weight_history) > 2 and (
            self._weight_history[1][0]
            <= t - (spec.chain.lag if spec.chain else 0.0)
        ):
            self._weight_history.popleft()
        return weights

    def _loop(self):
        spec = self.spec
        t_end = self._t_start + spec.duration
        while self.env.now < t_end:
            yield self.env.timeout(spec.tick)
            t = self.env.now - self._t_start
            offered = spec.offered(t)
            counts = allocate(spec, offered, self._weights_at(t), t)
            self._apply_tick(t, offered, counts)
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "scenario.end",
                campaign=self.campaign or None,
                ticks=self.ticks,
                offered_client_s=round(self.offered_client_s, 6),
                achieved_client_s=round(self.achieved_client_s, 6),
                joins=self.joins_total,
                leaves=self.leaves_total,
            )

    def _apply_tick(self, t: float, offered: int, counts: np.ndarray) -> None:
        spec = self.spec
        tr = self.env.tracer

        if spec.background is not None:
            for i, node, proc in self._bg_procs:
                node.kernel.cpu.set_demand(
                    proc, spec.background.demand(i, spec.nodes, t)
                )

        # Joins/leaves: the net population delta plus drawn churn.
        populations = counts.tolist()
        total = sum(populations)
        delta = total - self._last_total
        joins = max(delta, 0)
        leaves = max(-delta, 0)
        if spec.mix is not None:
            expected = spec.mix.expected_churn(float(total)) * spec.tick
            churn = int(self.rng.poisson(expected)) if expected > 0 else 0
            joins += churn
            leaves += churn
        self.joins_total += joins
        self.leaves_total += leaves

        if not self._zone_series:
            prefix = series_prefix(self.campaign)
            series = self.series.series
            self._zone_series = [
                series(f"{prefix}zone.{zs.zone.zone_id}.clients")
                for zs in self.zone_servers
            ]
            self._offered_series = series(f"{prefix}offered")
            self._achieved_series = series(f"{prefix}achieved")

        achieved = 0
        for zs, n, zone_series in zip(
            self.zone_servers, populations, self._zone_series
        ):
            zs.set_population(n)
            # Clients reach the zone only while both of its node's
            # interfaces are administratively up (node crash/stall
            # faults take them down).
            node = zs.current_node()
            if node.public_iface.up and node.local_iface.up:
                achieved += n
            zone_series.record(t, float(n))
        self._last_total = total

        self.ticks += 1
        self.last_offered = offered
        self.last_achieved = achieved
        self.offered_client_s += offered * spec.tick
        self.achieved_client_s += achieved * spec.tick
        self._offered_series.record(t, float(offered))
        self._achieved_series.record(t, float(achieved))

        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("scenario.ticks_total").inc()
            if joins:
                metrics.counter("scenario.joins_total").inc(joins)
            if leaves:
                metrics.counter("scenario.leaves_total").inc(leaves)

        if tr.enabled:
            for i, shape in enumerate(spec.shapes):
                if isinstance(shape, FlashCrowd):
                    if shape.excess(t) > 0 and i not in self._flash_open:
                        self._flash_open.add(i)
                        tr.event(
                            "scenario.flash",
                            campaign=self.campaign or None,
                            at=shape.at,
                            peak=shape.peak,
                            zone=shape.zone if shape.zone >= 0 else None,
                        )
            tr.event(
                "scenario.tick",
                campaign=self.campaign or None,
                offered=offered,
                achieved=achieved,
                joins=joins,
                leaves=leaves,
            )
