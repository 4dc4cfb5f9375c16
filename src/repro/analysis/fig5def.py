"""Figures 5d, 5e, 5f: the 15-minute DVE load-balancing experiment.

- 5e: per-node CPU consumption with load balancing *disabled*;
- 5f: the same with load balancing *enabled*;
- 5d: per-node zone-server process counts with load balancing enabled.

The experiment is the :data:`FIG5_CAMPAIGN` world (Section VI-C): 10,000
clients over a 10x10 zone grid on five nodes, 20 zone servers per node,
each holding client TCP connections and a MySQL session.  Clients drain
from the middle rows into the up-left and down-right corner regions,
loading node1 and node5.  It is built and driven by the campaign stages
(:func:`~repro.scenarios.campaign.build_world`,
:func:`~repro.scenarios.campaign.drive_world`); this module's own
measure stage samples per-node CPU and zone-server counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..des import SeriesBundle
from ..dve import ZoneGrid
from ..scenarios.campaign import (
    Campaign,
    CampaignWorld,
    build_world,
    drive_world,
    parse_campaign,
)
from ..scenarios.driver import allocate
from .report import render_kv, render_series, render_table

__all__ = [
    "FIG5_CAMPAIGN",
    "FIG5_QUICK_CAMPAIGN",
    "Fig5Result",
    "LoadBalancingComparison",
    "build_fig5_world",
    "zone_counts",
    "run_fig5",
    "run_fig5def",
    "render_fig5d",
    "render_fig5e",
    "render_fig5f",
    "render_comparison",
]

_FIG5_TEXT = """\
[campaign]
name = {name}
imbalance_threshold = 6
check_interval = 1.5
calm_down = 8
round_timeout = 0.16

[scenario]
clients {clients}
duration {duration}
tick 1
grid 10x10
nodes 5
server cpu_per_client=0.0003 cpu_base=0.048 pages=300 conns={conns} db=true
zones corners travel={travel} mass=0.6 band=0.4
"""

#: The paper's run: "the overall experiment takes approximately 15
#: minutes".  60% of rows 3–6 drain into the 2x2 corner regions over
#: 250 s, leaving node1/node5 near 96% CPU and node3 near 60% without
#: load balancing.
FIG5_CAMPAIGN: Campaign = parse_campaign(
    _FIG5_TEXT.format(name="fig5", clients=10000, duration=900, conns=4, travel=250),
    path="<campaign:fig5>",
)

#: The reduced twin behind ``--quick``: fewer clients, one client
#: connection per zone server, a faster drift and a 4-minute run.
FIG5_QUICK_CAMPAIGN: Campaign = parse_campaign(
    _FIG5_TEXT.format(
        name="fig5-quick", clients=4000, duration=240, conns=1, travel=160
    ),
    path="<campaign:fig5-quick>",
)

#: Period of the per-node CPU / process-count samples (seconds).
SAMPLE_INTERVAL = 2.0


@dataclass
class Fig5Result:
    """Everything the Figure-5 panels plot."""

    #: Per-node CPU utilisation over time (Fig. 5e / 5f).
    cpu: SeriesBundle
    #: Per-node zone-server process counts over time (Fig. 5d).
    procs: SeriesBundle
    #: Every migration the conductors launched, cluster-wide, timed
    #: from the drive start.
    migrations: list
    load_balancing: bool

    def final_loads(self) -> dict[str, float]:
        _start, end = self.cpu.common_window()
        return {name: self.cpu[name].value_at(end) for name in self.cpu.names()}

    def final_proc_counts(self) -> dict[str, int]:
        _start, end = self.procs.common_window()
        return {
            name: int(self.procs[name].value_at(end)) for name in self.procs.names()
        }

    def max_spread(self, after: float = 0.0) -> float:
        """Worst max-min CPU spread across nodes after time ``after``."""
        start, end = self.cpu.common_window()
        times = [t for t in self.cpu[self.cpu.names()[0]].times if after <= t <= end]
        return max(self.cpu.spread_at(t) for t in times)


def zone_counts(campaign: Campaign, t: float) -> np.ndarray:
    """(rows, cols) client counts the campaign's scenario driver
    allocates at ``t`` seconds into the drive."""
    spec = campaign.scenario
    grid = ZoneGrid(spec.grid_cols, spec.grid_rows, spec.nodes)
    counts = allocate(spec, spec.offered(t), spec.zones.weights(grid, t), t)
    return counts.reshape(grid.rows, grid.cols)


def build_fig5_world(
    campaign: Campaign = FIG5_CAMPAIGN,
    *,
    load_balancing: bool = True,
    seed: Optional[int] = None,
) -> CampaignWorld:
    """Build stage: the campaign's world, with a conductor on every node
    when ``load_balancing`` is on."""
    seed = campaign.seed if seed is None else seed
    balancers = campaign.conductor_config(seed) if load_balancing else None
    return build_world(campaign.scenario, seed=seed, balancers=balancers)


def run_fig5(world: CampaignWorld, campaign: Campaign = FIG5_CAMPAIGN) -> Fig5Result:
    """Drive ``world`` with ``campaign`` for its scenario duration and
    sample per-node CPU and zone-server counts every
    :data:`SAMPLE_INTERVAL` seconds."""
    env = world.cluster.env
    nodes = world.cluster.nodes
    cpu = SeriesBundle()
    procs = SeriesBundle()
    # The experiment starts with the clients already in place: seed
    # every zone with the t=0 allocation the driver's first tick refines.
    for zs, n in zip(world.zone_servers, zone_counts(campaign, 0.0).ravel()):
        zs.set_population(int(n))
    drive_world(world, campaign)
    t0 = env.now

    def sampler():
        while True:
            yield env.timeout(SAMPLE_INTERVAL)
            per_node = {n.name: 0 for n in nodes}
            for zs in world.zone_servers:
                per_node[zs.current_node().name] += 1
            now = env.now - t0
            for node in nodes:
                cpu.record(node.name, now, node.kernel.cpu.utilization())
                procs.record(node.name, now, per_node[node.name])

    env.process(sampler(), name="fig5-sampler")
    env.run(until=t0 + campaign.scenario.duration)

    migrations = sorted(
        (replace(e, time=e.time - t0) for e in world.migration_events()),
        key=lambda e: e.time,
    )
    return Fig5Result(
        cpu=cpu,
        procs=procs,
        migrations=migrations,
        load_balancing=bool(world.conductors),
    )


@dataclass
class LoadBalancingComparison:
    without_lb: Fig5Result
    with_lb: Fig5Result

    def spread_reduction(self, after_fraction: float = 0.5) -> float:
        """How much the worst CPU spread shrank with LB enabled,
        measured over the second half of the run."""
        _start, end = self.without_lb.cpu.common_window()
        after = end * after_fraction
        return self.without_lb.max_spread(after) - self.with_lb.max_spread(after)


def run_fig5def(
    campaign: Campaign = FIG5_CAMPAIGN,
    *,
    seed: Optional[int] = None,
) -> LoadBalancingComparison:
    """Run the campaign's world twice: LB off (5e) and LB on (5d + 5f).
    Each world is closed once its run is extracted."""
    runs = []
    for lb in (False, True):
        world = build_fig5_world(campaign, load_balancing=lb, seed=seed)
        runs.append(run_fig5(world, campaign))
        world.cluster.close()
    return LoadBalancingComparison(without_lb=runs[0], with_lb=runs[1])


def _sample_times(result: Fig5Result, n: int = 10) -> np.ndarray:
    start, end = result.cpu.common_window()
    return np.linspace(start, end, n)


def render_fig5e(result: Fig5Result) -> str:
    assert not result.load_balancing
    from .chart import render_chart

    return (
        render_series(
            result.cpu,
            times=_sample_times(result),
            title="Figure 5e: CPU consumption per node WITHOUT load balancing (%)",
        )
        + "\n\n"
        + render_chart(result.cpu, y_range=(50, 102), ylabel="CPU %")
    )


def render_fig5f(result: Fig5Result) -> str:
    assert result.load_balancing
    from .chart import render_chart

    return (
        render_series(
            result.cpu,
            times=_sample_times(result),
            title="Figure 5f: CPU consumption per node WITH load balancing (%)",
        )
        + "\n\n"
        + render_chart(result.cpu, y_range=(50, 102), ylabel="CPU %")
    )


def render_fig5d(result: Fig5Result) -> str:
    assert result.load_balancing
    out = render_series(
        result.procs,
        times=_sample_times(result),
        title="Figure 5d: zone-server processes per node (load balancing on)",
        value_fmt=".0f",
    )
    rows = [
        (f"{e.time:.0f}s", e.process_name, e.source, e.destination,
         f"{e.freeze_time * 1e3:.1f}" if e.freeze_time is not None else "-")
        for e in result.migrations
    ]
    out += "\n" + render_table(
        ["time", "process", "from", "to", "freeze (ms)"],
        rows,
        title="\nMigrations performed:",
    )
    return out


def render_comparison(cmp: LoadBalancingComparison) -> str:
    _s, end = cmp.without_lb.cpu.common_window()
    after = end * 0.5
    return render_kv(
        {
            "max CPU spread, no LB (%)": cmp.without_lb.max_spread(after),
            "max CPU spread, LB on (%)": cmp.with_lb.max_spread(after),
            "spread reduction (%)": cmp.spread_reduction(),
            "migrations performed": len(cmp.with_lb.migrations),
            "final loads no LB": {
                k: round(v, 1) for k, v in cmp.without_lb.final_loads().items()
            },
            "final loads LB on": {
                k: round(v, 1) for k, v in cmp.with_lb.final_loads().items()
            },
            "final proc counts (LB)": cmp.with_lb.final_proc_counts(),
        },
        title="Load balancing effectiveness (second half of the run):",
    )
