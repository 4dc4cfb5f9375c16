"""Chaos campaigns: seeded (scenario, fault plan, strategy, SLO ruleset)
quadruples run as one reproducible experiment.

A campaign document has four sections — the workload, what breaks, who
decides, and what must hold::

    [campaign]
    name = diurnal-cycle-aware
    strategy = cycle-aware
    strategy_params = min_cycles=2.0
    seed = 42
    degraded_above = 82

    [scenario]
    clients 400
    duration 240
    load diurnal period=60 amp=0.35

    [faults]
    t=60 crash node node3

    [slo]
    scenario.achieved_ratio >= 0.95
    campaign.migrations_failed == 0

:func:`run_campaign` builds the world (cluster, zone servers, strategy),
drives it (faults plus the scenario driver), measures it, and evaluates
the SLO rules through
:mod:`repro.obs.slo` over the flat ``scenario.*`` / ``campaign.*``
measurements; :meth:`CampaignResult.bench_doc` wraps everything in a
versioned ``repro-bench/1`` document, so each campaign is a standing
regression gate, not a one-off demo.  A dozen named campaigns ship in
:data:`NAMED_CAMPAIGNS` (``repro-campaign list``).

Determinism: the campaign seed feeds the cluster's master
:class:`~repro.des.RngRegistry` (scenario churn and fault packet
verdicts derive from it) and the conductors' strategy rngs
(``ConductorConfig.seed``, combined with each node's address), so
re-running any campaign with the same seed yields byte-identical
traces.  Heartbeat jitter does not depend on the seed:
``Conductor._heartbeat_loop`` seeds it from the node address alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..faults import FaultPlan
from ..obs.slo import SLOReport, evaluate_slos, parse_rule
from .driver import ScenarioDriver
from .dsl import ScenarioParseError, parse_scenario
from .primitives import ScenarioSpec, _fmt

if TYPE_CHECKING:
    from ..cluster import Cluster
    from ..dve.space import ZoneGrid
    from ..middleware import ConductorConfig

__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignWorld",
    "build_world",
    "drive_world",
    "measure_campaign",
    "parse_campaign",
    "run_campaign",
    "NAMED_CAMPAIGNS",
    "campaign_names",
    "get_campaign",
]

_SECTIONS = ("campaign", "scenario", "faults", "slo")


@dataclass
class Campaign:
    """One named quadruple: scenario × fault plan × strategy × SLOs."""

    name: str
    scenario: ScenarioSpec
    faults: FaultPlan = field(default_factory=FaultPlan)
    strategy: str = "paper-threshold"
    strategy_params: dict = field(default_factory=dict)
    slos: list[str] = field(default_factory=list)
    seed: int = 42
    #: A node is degraded above this CPU load (%).
    degraded_above: float = 82.0
    #: Conductor knobs the campaign may pin.
    imbalance_threshold: float = 12.0
    check_interval: float = 1.0
    calm_down: float = 5.0
    round_timeout: float = 0.08
    mode: str = "precopy"
    compression: str = "none"
    #: Measures (degradation, spread) start after this many seconds;
    #: ``None`` means a quarter of the scenario duration.
    measure_after: Optional[float] = None
    #: Scenario duration used under ``--quick``; ``None`` keeps the full
    #: duration.
    quick_duration: Optional[float] = None

    def with_overrides(self, **overrides) -> "Campaign":
        """A copy with header fields replaced — the hook the sweep
        runner (:mod:`repro.sweep`) uses to expand one campaign into a
        parameter matrix.  Overriding ``strategy`` without also passing
        ``strategy_params`` clears the params: they belong to the
        strategy they were written for."""
        from dataclasses import replace

        if "strategy" in overrides and "strategy_params" not in overrides:
            overrides["strategy_params"] = {}
        return replace(self, **overrides)

    def conductor_config(self, seed: int) -> "ConductorConfig":
        """The conductor configuration the campaign's header pins."""
        from ..core import LiveMigrationConfig
        from ..middleware import ConductorConfig, PolicyConfig

        return ConductorConfig(
            policies=PolicyConfig(imbalance_threshold=self.imbalance_threshold),
            check_interval=self.check_interval,
            calm_down=self.calm_down,
            migration=LiveMigrationConfig(
                initial_round_timeout=self.round_timeout,
                mode=self.mode,
                compression=self.compression,
            ),
            strategy=self.strategy,
            strategy_params=dict(self.strategy_params),
            seed=seed,
        )

    def effective_measure_after(self, duration: float) -> float:
        return (
            self.measure_after
            if self.measure_after is not None
            else duration / 4.0
        )

    def describe(self) -> str:
        """The campaign in file form (round-trips through
        :func:`parse_campaign`)."""
        header = [
            "[campaign]",
            f"name = {self.name}",
            f"seed = {self.seed}",
            f"strategy = {self.strategy}",
        ]
        if self.strategy_params:
            params = ",".join(
                f"{k}={_fmt(v)}" for k, v in sorted(self.strategy_params.items())
            )
            header.append(f"strategy_params = {params}")
        header.append(f"degraded_above = {_fmt(self.degraded_above)}")
        header.append(f"imbalance_threshold = {_fmt(self.imbalance_threshold)}")
        header.append(f"check_interval = {_fmt(self.check_interval)}")
        header.append(f"calm_down = {_fmt(self.calm_down)}")
        header.append(f"round_timeout = {_fmt(self.round_timeout)}")
        if self.mode != "precopy":
            header.append(f"mode = {self.mode}")
        if self.compression != "none":
            header.append(f"compression = {self.compression}")
        if self.measure_after is not None:
            header.append(f"measure_after = {_fmt(self.measure_after)}")
        if self.quick_duration is not None:
            header.append(f"quick_duration = {_fmt(self.quick_duration)}")
        parts = ["\n".join(header), "[scenario]\n" + self.scenario.describe()]
        if len(self.faults):
            parts.append("[faults]\n" + self.faults.describe())
        if self.slos:
            parts.append("[slo]\n" + "\n".join(self.slos))
        return "\n\n".join(parts) + "\n"


# -- the campaign-file parser ---------------------------------------------------
_HEADER_PARSERS = {
    "name": str,
    "seed": int,
    "strategy": str,
    "strategy_params": str,
    "degraded_above": float,
    "imbalance_threshold": float,
    "check_interval": float,
    "calm_down": float,
    "round_timeout": float,
    "mode": str,
    "compression": str,
    "measure_after": float,
    "quick_duration": float,
}


def _parse_strategy_params(value: str, path: str, lineno: int) -> dict:
    params: dict = {}
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        if not sep:
            raise ScenarioParseError(
                path, lineno, item, "strategy_params items must be key=value"
            )
        try:
            params[key.strip()] = float(raw)
        except ValueError:
            params[key.strip()] = raw.strip()
    return params


def parse_campaign(text: str, path: str = "<campaign>") -> Campaign:
    """Parse a sectioned campaign document.

    Raises :class:`~repro.scenarios.dsl.ScenarioParseError` (message
    ``path:lineno:token: reason``) on any malformed content — including
    malformed lines inside the ``[scenario]``, ``[faults]`` and
    ``[slo]`` sections, whose line numbers stay relative to the whole
    document.
    """
    sections: dict[str, list[tuple[int, str]]] = {name: [] for name in _SECTIONS}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError(path, lineno, line, "unterminated section header")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioParseError(
                    path,
                    lineno,
                    name,
                    f"unknown section (known: {', '.join(_SECTIONS)})",
                )
            current = name
            continue
        if current is None:
            raise ScenarioParseError(
                path, lineno, line.split()[0], "content before any [section] header"
            )
        sections[current].append((lineno, line))

    header: dict = {}
    for lineno, line in sections["campaign"]:
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ScenarioParseError(
                path, lineno, line, "campaign entries must be 'key = value'"
            )
        parser = _HEADER_PARSERS.get(key)
        if parser is None:
            raise ScenarioParseError(
                path,
                lineno,
                key,
                f"unknown campaign key (known: {', '.join(sorted(_HEADER_PARSERS))})",
            )
        try:
            header[key] = parser(value)
        except ValueError:
            raise ScenarioParseError(
                path, lineno, value, f"bad value for campaign key {key!r}"
            ) from None
    if "name" not in header:
        raise ScenarioParseError(path, 0, "name", "campaign needs a 'name = ...' entry")
    if "strategy_params" in header:
        src_lineno = next(
            (ln for ln, line in sections["campaign"] if line.startswith("strategy_params")),
            0,
        )
        header["strategy_params"] = _parse_strategy_params(
            header["strategy_params"], path, src_lineno
        )

    if not sections["scenario"]:
        raise ScenarioParseError(path, 0, "scenario", "campaign needs a [scenario] section")
    # Reconstruct the section with original line numbers so scenario
    # parse errors point at the right line of the campaign file.
    max_line = max(ln for ln, _ in sections["scenario"])
    scenario_lines = [""] * max_line
    for ln, line in sections["scenario"]:
        scenario_lines[ln - 1] = line
    spec = parse_scenario("\n".join(scenario_lines), path=path)

    plan = FaultPlan()
    for lineno, line in sections["faults"]:
        from ..faults.dsl import parse_fault

        try:
            plan.add(parse_fault(line))
        except ValueError as exc:
            raise ScenarioParseError(path, lineno, line, str(exc)) from None

    slos: list[str] = []
    for lineno, line in sections["slo"]:
        try:
            parse_rule(line)
        except ValueError as exc:
            raise ScenarioParseError(path, lineno, line, str(exc)) from None
        slos.append(line)

    return Campaign(scenario=spec, faults=plan, slos=slos, **header)


# -- execution --------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    campaign: Campaign
    seed: int
    quick: bool
    duration: float
    #: Flat measurement values (``scenario.*`` and ``campaign.*``).
    values: dict[str, float]
    slo_report: SLOReport
    migrations: list

    @property
    def passed(self) -> bool:
        return self.slo_report.passed

    #: Which way each campaign measure is *better*, for BENCH documents.
    _DIRECTIONS = {
        "scenario.achieved_ratio": ("ratio", "higher"),
        "scenario.offered_client_s": ("client-s", "none"),
        "scenario.achieved_client_s": ("client-s", "higher"),
        "scenario.joins_total": ("count", "none"),
        "scenario.leaves_total": ("count", "none"),
        "scenario.ticks_total": ("count", "none"),
        "campaign.degradation_node_s": ("s", "lower"),
        "campaign.spread_pct": ("%", "lower"),
        "campaign.migrations": ("count", "lower"),
        "campaign.migrations_failed": ("count", "lower"),
        "campaign.freeze_total_ms": ("ms", "lower"),
        "campaign.planner_deferred": ("count", "none"),
        "campaign.planner_dropped": ("count", "none"),
    }

    def bench_doc(self) -> dict:
        """The run as a validated ``repro-bench/1`` document
        (``BENCH_campaign_<name>.json``)."""
        from ..obs.bench import make_bench

        metrics = {}
        for name, value in sorted(self.values.items()):
            unit, direction = self._DIRECTIONS.get(name, ("value", "none"))
            metrics[name] = {"value": float(value), "unit": unit, "direction": direction}
        return make_bench(
            f"campaign_{self.campaign.name}",
            quick=self.quick,
            params={
                "campaign": self.campaign.name,
                "seed": self.seed,
                "strategy": self.campaign.strategy,
                "duration_s": self.duration,
                "degraded_above_pct": self.campaign.degraded_above,
                "faults": self.campaign.faults.describe(),
                "scenario": self.campaign.scenario.describe(),
            },
            metrics=metrics,
            slos=self.slo_report.to_dict(),
        )

    def render(self) -> str:
        from ..analysis.report import render_kv

        body = render_kv(
            {k: round(v, 6) for k, v in sorted(self.values.items())},
            title=f"campaign {self.campaign.name} (seed {self.seed})",
        )
        return body + "\n\n" + self.slo_report.render()


@dataclass
class CampaignWorld:
    """A built zone-server world: the cluster, its zone grid, one zone
    server per zone (aligned with ``grid.zones``) and the conductors
    managing them (none when the world was built without balancers)."""

    cluster: "Cluster"
    grid: "ZoneGrid"
    zone_servers: list
    conductors: list

    def migration_events(self) -> list:
        """Every migration the conductors launched, in conductor order."""
        return [ev for c in self.conductors for ev in c.events]


def build_world(
    spec: ScenarioSpec,
    *,
    seed: int = 42,
    balancers: Optional["ConductorConfig"] = None,
    tracing: bool = False,
) -> CampaignWorld:
    """Build stage: the cluster, the zone grid and one started zone
    server per zone on its row-band node, each with ``spec.conns``
    client connections and, under ``spec.db``, a MySQL session.  With
    ``balancers`` a conductor on every node manages every zone server.
    ``tracing`` attaches the tracer before anything is built.  Opening
    connections advances simulated time (handshakes settle), so later
    stages measure from ``cluster.env.now``."""
    from ..cluster import Cluster, ClusterConfig
    from ..dve.mysql import MySQLServer
    from ..dve.space import ZoneGrid
    from ..dve.zoneserver import ZoneServer, ZoneServerConfig

    cluster = Cluster(
        ClusterConfig(n_nodes=spec.nodes, with_db=spec.db, master_seed=seed)
    )
    if tracing:
        cluster.env.enable_tracing()
    grid = ZoneGrid(spec.grid_cols, spec.grid_rows, spec.nodes)
    db = MySQLServer(cluster.db) if spec.db else None
    zs_config = ZoneServerConfig(
        memory_pages=spec.pages,
        cpu_per_client=spec.cpu_per_client,
        cpu_base=spec.cpu_base,
        n_client_conns=spec.conns,
    )
    zone_servers = []
    cohort = None
    for zone in grid.zones:
        node = cluster.nodes[grid.initial_node_of(zone)]
        zs = ZoneServer(cluster, node, zone, db=db, config=zs_config)
        if spec.conns:
            zs.connect_clients()
        if db is not None:
            zs.connect_db()
        # Servers started at one instant tick in one cohort; opening
        # connections advances time, so then each gets its own.
        cohort = zs.start(cohort)
        zone_servers.append(zs)

    conductors = []
    if balancers is not None:
        conductors = cluster.install_balancers(balancers)
        for zs in zone_servers:
            zs.current_node().daemons["conductor"].manage(zs.proc)
    return CampaignWorld(cluster, grid, zone_servers, conductors)


def drive_world(world: CampaignWorld, campaign: Campaign) -> ScenarioDriver:
    """Drive stage: arm the campaign's faults and start its scenario
    driver on ``world``, from now."""
    from ..faults import install_faults

    if len(campaign.faults):
        install_faults(world.cluster, campaign.faults)
    return ScenarioDriver(
        world.cluster,
        world.grid,
        world.zone_servers,
        campaign.scenario,
        campaign=campaign.name,
    ).start()


def measure_campaign(
    world: CampaignWorld,
    driver: ScenarioDriver,
    campaign: Campaign,
    duration: float,
) -> dict[str, float]:
    """Measure stage: sample every conductor's load each scenario tick
    after the campaign's measure point, run ``duration`` seconds from
    the drive's start, and return the flat ``scenario.*`` /
    ``campaign.*`` values."""
    env = world.cluster.env
    conductors = world.conductors
    spec = campaign.scenario
    t0 = env.now
    measure_after = t0 + campaign.effective_measure_after(duration)
    samples: list[list[float]] = []

    def sampler():
        while True:
            yield env.timeout(spec.tick)
            if env.now >= measure_after:
                samples.append([c.monitor.current_load() for c in conductors])

    env.process(sampler(), name="campaign-sampler")
    env.run(until=t0 + duration)

    degradation = sum(
        spec.tick
        for loads in samples
        for load in loads
        if load > campaign.degraded_above
    )
    spread = (
        sum(max(loads) - min(loads) for loads in samples) / len(samples)
        if samples
        else 0.0
    )
    events = world.migration_events()
    succeeded = [ev for ev in events if ev.success]

    values = dict(driver.counters())
    values.update(
        {
            "campaign.degradation_node_s": degradation,
            "campaign.spread_pct": spread,
            "campaign.migrations": float(len(succeeded)),
            "campaign.migrations_failed": float(len(events) - len(succeeded)),
            "campaign.freeze_total_ms": sum(
                ev.freeze_time for ev in succeeded if ev.freeze_time is not None
            )
            * 1e3,
            "campaign.planner_deferred": float(
                sum(c.planner.deferred_total for c in conductors)
            ),
            "campaign.planner_dropped": float(
                sum(c.planner.dropped_total for c in conductors)
            ),
        }
    )
    return values


def run_campaign(
    campaign: Campaign,
    *,
    quick: bool = False,
    seed: Optional[int] = None,
    trace_path=None,
    series_path=None,
) -> CampaignResult:
    """Execute one campaign end to end: build, drive, measure.

    ``seed`` overrides the campaign's seed; ``trace_path`` enables
    tracing and writes the JSONL trace there; ``series_path`` writes the
    driver's per-tick ``scenario.*`` series as CSV (the ``repro-dash``
    scenario-panel input).  Returns the :class:`CampaignResult` with the
    SLO verdict evaluated — the caller decides whether a failed verdict
    is fatal (CI makes it blocking).
    """
    effective_seed = campaign.seed if seed is None else seed
    duration = campaign.scenario.duration
    if quick and campaign.quick_duration is not None:
        duration = campaign.quick_duration

    world = build_world(
        campaign.scenario,
        seed=effective_seed,
        balancers=campaign.conductor_config(effective_seed),
        tracing=trace_path is not None,
    )
    driver = drive_world(world, campaign)
    values = measure_campaign(world, driver, campaign, duration)
    report = evaluate_slos(campaign.slos, values)

    if trace_path is not None:
        from ..obs.export import write_jsonl

        write_jsonl(trace_path, world.cluster.env.tracer)
    if series_path is not None:
        from pathlib import Path

        from ..analysis.export import series_to_csv

        Path(series_path).write_text(series_to_csv(driver.series))

    migrations = [ev for ev in world.migration_events() if ev.success]
    world.cluster.close()
    return CampaignResult(
        campaign=campaign,
        seed=effective_seed,
        quick=quick,
        duration=duration,
        values=values,
        slo_report=report,
        migrations=migrations,
    )


# -- the standing suite -------------------------------------------------------------
#: The common campaign scale: 4 nodes × a 4x4 grid (4 zone servers per
#: node), 400 offered clients at 0.6% of a core each — a uniformly
#: spread population parks every node near 34% CPU, leaving headroom
#: for the skews and spikes below to push hot nodes past the
#: degradation threshold.
_BASE_SCENARIO = """\
clients 400
duration 240
tick 1
grid 4x4
nodes 4
server cpu_per_client=0.006 cpu_base=0.02 pages=48
"""

#: The decision-strategy head-to-head scale: eight fat zones (two per
#: node, ~8% of a node each) under a staggered periodic background.
#: Balanced, a node's background peak tops out just *below* the 82%
#: degradation threshold; one extra zone stacked on it peaks just
#: *above* — the margin that separates peak-chasing from cycle-aware
#: decisions.
_DIURNAL_SCENARIO = """\
clients 400
duration 420
tick 1
grid 2x4
nodes 4
server cpu_per_client=0.0032 cpu_base=0.02 pages=48
background cycle base=0.8 amp=0.4 period=30
"""

NAMED_CAMPAIGNS: dict[str, str] = {
    # Nothing happens, and that is the assertion: a uniform population
    # must not trigger migrations, and every offered client is served.
    "quiet-baseline": f"""\
[campaign]
name = quiet-baseline
quick_duration = 90

[scenario]
{_BASE_SCENARIO}
[slo]
scenario.achieved_ratio >= 0.999
campaign.migrations == 0
campaign.migrations_failed == 0
""",
    # Zipf zone popularity: the first row band carries ~65% of the
    # population, so node1 starts structurally overloaded.  The decision
    # plane must discover and fix it, then stay quiet.
    "zipf-zones-paper": f"""\
[campaign]
name = zipf-zones-paper
quick_duration = 120

[scenario]
{_BASE_SCENARIO}
zones zipf s=1.1

[slo]
scenario.achieved_ratio >= 0.999
campaign.migrations >= 1
campaign.migrations_failed == 0
campaign.spread_pct <= 45
""",
    # The fig5 corner-drift clustering in count space: load slowly
    # concentrates on the first and last nodes.
    "corner-drift-paper": f"""\
[campaign]
name = corner-drift-paper
quick_duration = 120

[scenario]
{_BASE_SCENARIO}
zones corners travel=180 mass=0.7

[slo]
scenario.achieved_ratio >= 0.999
campaign.migrations >= 1
campaign.migrations_failed == 0
""",
    # A flash crowd aimed at zone 0 while node3 crashes outright: the
    # cluster must keep serving everything not on the dead node.
    "flash-crowd-node-crash": f"""\
[campaign]
name = flash-crowd-node-crash
quick_duration = 120

[scenario]
{_BASE_SCENARIO}
load flash at=40 peak=1.5 ramp=10 hold=30 decay=20 zone=0

[faults]
t=60 crash node node3

[slo]
scenario.achieved_ratio >= 0.6
campaign.migrations >= 1
""",
    # The same flash crowd with a lossy link under the hot node instead
    # of a crash: recovery is retransmission, not rerouting, so service
    # must stay near-perfect.
    "flash-crowd-link-loss": f"""\
[campaign]
name = flash-crowd-link-loss
quick_duration = 120

[scenario]
{_BASE_SCENARIO}
load flash at=40 peak=1.5 ramp=10 hold=30 decay=20 zone=0

[faults]
t=45 loss link node1 rate=0.05 duration=40

[slo]
scenario.achieved_ratio >= 0.95
campaign.migrations >= 1
""",
    # Staggered diurnal background (other tenants) on a balanced layout
    # of eight fat zones, decided by the paper's threshold rule: it
    # cannot tell a cyclic peak from structural excess, so it sheds at
    # every peak and the stacked receivers — held by the post-migration
    # calm-down — ride their next peak above the degradation threshold.
    # The head-to-head twin of diurnal-cycle-aware below:
    # bench_ext_scenarios gates cycle-aware beating this on
    # degradation-seconds.
    "diurnal-paper": f"""\
[campaign]
name = diurnal-paper
calm_down = 10
measure_after = 120
quick_duration = 240

[scenario]
{_DIURNAL_SCENARIO}
[slo]
scenario.achieved_ratio >= 0.999
campaign.migrations >= 10
""",
    # Same workload, cycle-aware decisions: the peak-driven triggers get
    # deferred into the forecast trough and dropped at cycle-mean
    # re-validation, so the layout stays put and no node ever crosses
    # the degradation threshold.
    "diurnal-cycle-aware": f"""\
[campaign]
name = diurnal-cycle-aware
strategy = cycle-aware
strategy_params = min_cycles=2.0
calm_down = 10
measure_after = 120
quick_duration = 240

[scenario]
{_DIURNAL_SCENARIO}
[slo]
scenario.achieved_ratio >= 0.999
campaign.degradation_node_s <= 5
campaign.planner_deferred >= 1
""",
    # Same workload again, band-based balancing: the band is wider than
    # the periodic swing, so it only ever fixes structure — of which
    # this layout has none — and stays almost completely quiet.
    "diurnal-workload-balance": f"""\
[campaign]
name = diurnal-workload-balance
strategy = workload-balance-to-average
strategy_params = band=22
calm_down = 10
measure_after = 120
quick_duration = 240

[scenario]
{_DIURNAL_SCENARIO}
[slo]
scenario.achieved_ratio >= 0.999
campaign.degradation_node_s <= 5
campaign.migrations <= 10
""",
    # Churny connection mix through a 3-second full partition of the
    # hot node's link: joins/leaves keep flowing, the partition heals,
    # nothing may stay broken.
    "churny-mix-partition": f"""\
[campaign]
name = churny-mix-partition
quick_duration = 120

[scenario]
{_BASE_SCENARIO}
zones zipf s=1.1
mix churn=0.1 long_lived=0.5

[faults]
t=50 partition link node1 duration=3

[slo]
scenario.achieved_ratio >= 0.99
scenario.joins_total >= 100
scenario.leaves_total >= 100
""",
    # The paper's in-cluster dependency case: zone load bleeds into the
    # next zone's server with a lag, while the downstream node stalls
    # for two seconds mid-run.
    "dependency-chain-stall": f"""\
[campaign]
name = dependency-chain-stall
quick_duration = 120

[scenario]
{_BASE_SCENARIO}
zones zipf s=1.1
chain depend gain=0.4 lag=5 stride=4

[faults]
t=50 stall node node2 duration=2

[slo]
scenario.achieved_ratio >= 0.97
campaign.migrations_failed <= 2
""",
    # Post-copy under a write-hot working set: migrations must land
    # (demand-fetch keeps downtime flat) even though precopy would
    # never converge on this dirty rate.
    "hotset-postcopy": f"""\
[campaign]
name = hotset-postcopy
mode = postcopy
quick_duration = 120

[scenario]
{_BASE_SCENARIO}
zones zipf s=1.1
dirty hotset pages=24 interval=0.1

[slo]
scenario.achieved_ratio >= 0.999
campaign.migrations >= 1
campaign.migrations_failed == 0
""",
    # Follow-the-sun: a popularity wave circles the zones.  Unlike the
    # background cycle this load *is* migratable, and the threshold
    # strategy genuinely solves it: a handful of moves interleave zone
    # phases on every node until the wave cancels out, then it goes
    # quiet.  The standing assertion that chasing is sometimes right.
    "follow-the-sun": f"""\
[campaign]
name = follow-the-sun
measure_after = 120
quick_duration = 180

[scenario]
clients 400
duration 300
tick 1
grid 4x4
nodes 4
server cpu_per_client=0.011 cpu_base=0.01 pages=48
zones rotate period=40 amp=0.45

[slo]
scenario.achieved_ratio >= 0.999
campaign.migrations_failed == 0
campaign.spread_pct <= 25
""",
    # Correlated failures: two node crashes ten seconds apart — half
    # the cluster gone.  The survivors must absorb what they can and
    # the balance plane must not wedge.
    "correlated-crashes": f"""\
[campaign]
name = correlated-crashes
quick_duration = 120

[scenario]
{_BASE_SCENARIO}
[faults]
t=50 crash node node3
t=60 crash node node4

[slo]
scenario.achieved_ratio >= 0.45
scenario.ticks_total >= 100
""",
}


def campaign_names() -> list[str]:
    return sorted(NAMED_CAMPAIGNS)


def get_campaign(name: str) -> Campaign:
    """Parse one named campaign.  Raises :class:`KeyError` with the
    known names for typos."""
    text = NAMED_CAMPAIGNS.get(name)
    if text is None:
        raise KeyError(
            f"unknown campaign {name!r} (known: {', '.join(campaign_names())})"
        )
    return parse_campaign(text, path=f"<campaign:{name}>")
