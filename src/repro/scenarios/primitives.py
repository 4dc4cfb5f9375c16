"""Typed workload primitives and the :class:`ScenarioSpec`.

A scenario is plain data: *how many* clients offer load, *how* the
offered population evolves over time, *where* in the zone grid it lands,
and *what* each zone-server process does with its memory while serving
it.  Primitives are pure: every one is a deterministic function of time
(and, for weight allocation, the zone index) — the only randomness in a
scenario-driven run is drawn by the :class:`~repro.scenarios.driver.
ScenarioDriver` from one named, seeded RNG stream, so a master seed
replays the same run byte for byte.

The taxonomy (see docs/scenarios.md):

====================  ====================================================
:class:`FlashCrowd`        a transient population spike (ramp/hold/decay)
:class:`DiurnalSine`       a periodic swing of the whole population
:class:`ZipfZones`         skewed zone popularity (rank-``s`` power law)
:class:`UniformZones`      every zone equally popular (the default)
:class:`RotatingHotspot`   a hotspot sweeping the zones (follow-the-sun)
:class:`CornerDrift`       population mass migrates to the grid corners
:class:`BackgroundCycle`   unmanaged per-node periodic demand (tenants)
:class:`ConnectionMix`     long-lived vs churny connection lifetimes
:class:`DependencyChain`   load on a zone bleeds into downstream zones
:class:`HotSet`            a write-hot working set on each zone server
====================  ====================================================

``FlashCrowd`` and ``DiurnalSine`` shape the *offered population* N(t);
``ZipfZones`` / ``UniformZones`` / ``RotatingHotspot`` / ``CornerDrift``
shape the per-zone *weights* w(z, t); ``DependencyChain`` post-processes the weights;
``BackgroundCycle`` puts unmanaged periodic demand on each node;
``ConnectionMix`` turns population deltas into join/leave churn; and
``HotSet`` is the memory workload each zone-server process runs (the
pattern :func:`repro.scenarios.workload.start_dirtier` drives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from ..dve.space import ZoneGrid

__all__ = [
    "LoadShape",
    "ZoneWeights",
    "FlashCrowd",
    "DiurnalSine",
    "ZipfZones",
    "UniformZones",
    "RotatingHotspot",
    "CornerDrift",
    "BackgroundCycle",
    "ConnectionMix",
    "DependencyChain",
    "HotSet",
    "ScenarioSpec",
]


def _fmt(value) -> str:
    """DSL-stable float/int formatting (round-trips through float())."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


# -- population shapes ---------------------------------------------------------
@dataclass(frozen=True)
class LoadShape:
    """Base population-shape primitive.

    :meth:`factor` is a pure function of time returning this shape's
    multiplicative contribution to the offered population; the driver
    multiplies all shapes together:  N(t) = clients × Π factor_i(t).
    """

    #: DSL verb (second word of a ``load`` line).
    kind = "shape"

    def factor(self, t: float) -> float:
        return 1.0

    def describe(self) -> str:
        return f"load {self.kind}"


@dataclass(frozen=True)
class FlashCrowd(LoadShape):
    """A flash crowd: the population spikes by ``peak``× over a
    ramp/hold/decay envelope starting at ``at``.

    ``factor`` is 1 outside the window; inside it rises linearly to
    ``1 + peak`` over ``ramp`` seconds, holds for ``hold`` seconds, and
    decays linearly back over ``decay`` seconds.  ``zone >= 0`` aims the
    extra crowd at one zone (the whole spike lands there); ``zone=-1``
    (default) spreads it by the scenario's zone weights.
    """

    at: float = 0.0
    peak: float = 2.0
    ramp: float = 5.0
    hold: float = 10.0
    decay: float = 20.0
    zone: int = -1

    kind = "flash"

    def __post_init__(self) -> None:
        if self.peak < 0:
            raise ValueError(f"flash peak must be non-negative, got {self.peak}")
        if min(self.ramp, self.hold, self.decay) < 0:
            raise ValueError("flash ramp/hold/decay must be non-negative")

    def excess(self, t: float) -> float:
        """The spike envelope in [0, peak] (0 outside the window)."""
        dt = t - self.at
        if dt < 0:
            return 0.0
        if dt < self.ramp:
            return self.peak * (dt / self.ramp) if self.ramp else self.peak
        dt -= self.ramp
        if dt < self.hold:
            return self.peak
        dt -= self.hold
        if dt < self.decay:
            return self.peak * (1.0 - dt / self.decay)
        return 0.0

    def factor(self, t: float) -> float:
        return 1.0 + self.excess(t)

    def describe(self) -> str:
        base = (
            f"load flash at={_fmt(self.at)} peak={_fmt(self.peak)} "
            f"ramp={_fmt(self.ramp)} hold={_fmt(self.hold)} decay={_fmt(self.decay)}"
        )
        if self.zone >= 0:
            base += f" zone={self.zone}"
        return base


@dataclass(frozen=True)
class DiurnalSine(LoadShape):
    """A periodic population swing: 1 + amp·sin(2π(t/period + phase)).

    The model for diurnal player-count cycles (Baruchi et al.) scaled
    down to simulation seconds; the cycle-aware strategy's trough
    scheduling is judged against exactly this shape.
    """

    period: float = 60.0
    amp: float = 0.4
    phase: float = 0.0

    kind = "diurnal"

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"diurnal period must be positive, got {self.period}")
        if not 0 <= self.amp <= 1:
            raise ValueError(f"diurnal amp must be in [0, 1], got {self.amp}")

    def factor(self, t: float) -> float:
        return 1.0 + self.amp * math.sin(2 * math.pi * (t / self.period + self.phase))

    def describe(self) -> str:
        return (
            f"load diurnal period={_fmt(self.period)} amp={_fmt(self.amp)} "
            f"phase={_fmt(self.phase)}"
        )


# -- zone popularity ------------------------------------------------------------
@dataclass(frozen=True)
class ZoneWeights:
    """Base zone-popularity primitive: pure w(zone, t) weight vectors."""

    kind = "uniform"

    def weights(self, grid: "ZoneGrid", t: float) -> np.ndarray:
        """Normalised popularity weights over the ``grid``'s zones (in
        zone-id order) at time ``t``."""
        return np.full(len(grid), 1.0 / len(grid))

    def describe(self) -> str:
        return f"zones {self.kind}"


@dataclass(frozen=True)
class UniformZones(ZoneWeights):
    """Every zone equally popular (the implicit default)."""

    kind = "uniform"


@dataclass(frozen=True)
class ZipfZones(ZoneWeights):
    """Zipf-skewed zone popularity: w(rank k) ∝ 1/k^s.

    Zone rank follows zone id (zone 0 most popular) so the initial
    row-band node assignment concentrates the skew on the first nodes —
    the structural imbalance the decision plane must discover and fix.
    """

    s: float = 1.0

    kind = "zipf"

    def __post_init__(self) -> None:
        if self.s <= 0:
            raise ValueError(f"zipf exponent must be positive, got {self.s}")

    def weights(self, grid: "ZoneGrid", t: float) -> np.ndarray:
        w = 1.0 / np.arange(1, len(grid) + 1, dtype=float) ** self.s
        return w / w.sum()

    def describe(self) -> str:
        return f"zones zipf s={_fmt(self.s)}"


@dataclass(frozen=True)
class RotatingHotspot(ZoneWeights):
    """A popularity wave sweeping the zones: follow-the-sun load.

    Per-zone weight is a travelling cosine,
    w(z, t) ∝ 1 + amp·cos(2π(t/period − z/n)), circling all zones once
    per ``period`` seconds (Σ cos over the ring is exactly zero, so the
    vector is normalised by construction).  Because the initial row-band
    placement gives each node contiguous zone ids, node phases come out
    staggered — every node's load is periodic with zero *cycle-mean*
    excess.  This is the workload that separates peak-chasing decision
    strategies (some node is always beyond the imbalance threshold, so
    they shed at every peak and stack the receivers forever) from
    cycle-aware ones (the deferred action re-validates against the flat
    cycle mean and is dropped).
    """

    period: float = 60.0
    amp: float = 0.5

    kind = "rotate"

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"rotate period must be positive, got {self.period}")
        if not 0 <= self.amp <= 1:
            raise ValueError(f"rotate amp must be in [0, 1], got {self.amp}")

    def weights(self, grid: "ZoneGrid", t: float) -> np.ndarray:
        n_zones = len(grid)
        z = np.arange(n_zones, dtype=float)
        w = 1.0 + self.amp * np.cos(2 * math.pi * (t / self.period - z / n_zones))
        return w / w.sum()

    def describe(self) -> str:
        return f"zones rotate period={_fmt(self.period)} amp={_fmt(self.amp)}"


@dataclass(frozen=True)
class CornerDrift(ZoneWeights):
    """Population mass drains from a band of rows into the up-left and
    down-right corner regions over ``travel`` seconds — the paper's
    Section VI-C clustering behaviour in count space.

    The source band is the middle ``band`` fraction of the grid's rows
    (``band=0.4`` on a 10-row grid is rows 3–6; the default drains every
    zone).  A corner region is k×k zones with k the rows each node
    initially owns (1×1 on a 4×4 grid over 4 nodes, 2×2 on Fig. 5's
    10×10 grid over 5), so each corner lands on the first or last node.
    At t=0 the weights are uniform; by ``t >= travel`` a ``mass``
    fraction of the band's population has moved, split evenly between
    the two corners and spread evenly inside each.
    """

    travel: float = 300.0
    mass: float = 0.7
    band: float = 1.0

    kind = "corners"

    def __post_init__(self) -> None:
        if self.travel <= 0:
            raise ValueError(f"corner travel must be positive, got {self.travel}")
        if not 0 <= self.mass <= 1:
            raise ValueError(f"corner mass must be in [0, 1], got {self.mass}")
        if not 0 < self.band <= 1:
            raise ValueError(f"corner band must be in (0, 1], got {self.band}")

    def weights(self, grid: "ZoneGrid", t: float) -> np.ndarray:
        n_zones = len(grid)
        progress = min(1.0, max(0.0, t / self.travel)) * self.mass
        band_rows = max(1, round(self.band * grid.rows))
        first = (grid.rows - band_rows) // 2
        w = np.full((grid.rows, grid.cols), 1.0 / n_zones)
        w[first:first + band_rows] = (1.0 - progress) / n_zones
        k = grid.rows // grid.n_nodes
        share = progress * (band_rows / grid.rows) / 2.0 / (k * k)
        w[:k, :k] += share
        w[-k:, -k:] += share
        return w.ravel()

    def describe(self) -> str:
        base = f"zones corners travel={_fmt(self.travel)} mass={_fmt(self.mass)}"
        if self.band != 1.0:
            base += f" band={_fmt(self.band)}"
        return base


# -- unmanaged background load ---------------------------------------------------
@dataclass(frozen=True)
class BackgroundCycle:
    """Per-node *unmanaged* periodic CPU demand: other tenants.

    Every node runs one background process (not managed by any
    conductor, so migration cannot move it) whose demand follows
    ``base + amp·sin(2π(t/period + k/n_nodes))`` cores — node ``k``'s
    phase staggered so the cluster always has a peaking node and a
    troughing node.  After Baruchi et al.'s workload cycles: this is the
    signal the cycle-aware strategy detects and schedules around, and
    the one a pure threshold rule chases forever (the peak excess is
    periodic, not structural, but an instantaneous threshold cannot
    tell).
    """

    base: float = 0.8
    amp: float = 0.4
    period: float = 30.0

    kind = "background"

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"background base must be non-negative, got {self.base}")
        if self.amp < 0:
            raise ValueError(f"background amp must be non-negative, got {self.amp}")
        if self.period <= 0:
            raise ValueError(
                f"background period must be positive, got {self.period}"
            )

    def demand(self, node_index: int, n_nodes: int, t: float) -> float:
        """Demand (cores) on node ``node_index`` at ``t``."""
        phase = node_index / max(n_nodes, 1)
        return max(
            0.0,
            self.base + self.amp * math.sin(2 * math.pi * (t / self.period + phase)),
        )

    def describe(self) -> str:
        return (
            f"background cycle base={_fmt(self.base)} amp={_fmt(self.amp)} "
            f"period={_fmt(self.period)}"
        )


# -- connection churn ------------------------------------------------------------
@dataclass(frozen=True)
class ConnectionMix:
    """Long-lived vs churny connection mix.

    Each tick, beyond the population delta the shapes demand, a ``churn``
    fraction of the *churny* sub-population (the ``1 - long_lived``
    share) leaves and is replaced by fresh joins.  The driver draws the
    actual churn count from its seeded stream (binomial around the
    expectation) so churn is stochastic but replayable.
    """

    churn: float = 0.05
    long_lived: float = 0.7

    kind = "mix"

    def __post_init__(self) -> None:
        if not 0 <= self.churn <= 1:
            raise ValueError(f"mix churn must be in [0, 1], got {self.churn}")
        if not 0 <= self.long_lived <= 1:
            raise ValueError(
                f"mix long_lived must be in [0, 1], got {self.long_lived}"
            )

    def expected_churn(self, population: float) -> float:
        """Expected leaves (== joins) per second at ``population``."""
        return self.churn * (1.0 - self.long_lived) * population

    def describe(self) -> str:
        return f"mix churn={_fmt(self.churn)} long_lived={_fmt(self.long_lived)}"


# -- in-cluster dependencies -------------------------------------------------------
@dataclass(frozen=True)
class DependencyChain:
    """In-cluster dependency: zone z's load bleeds into zone z+stride.

    The paper's MySQL/``transd`` case generalised: serving clients in
    one zone generates downstream work (DB writes, boundary sync,
    replicated state) on another server, ``lag`` seconds later, at
    ``gain`` times the upstream weight.  Applied as a pure
    post-processing step on the zone weight vector; weights are
    re-normalised afterwards so the chain shifts load *distribution*,
    not total offered population.
    """

    gain: float = 0.3
    lag: float = 5.0
    stride: int = 1

    kind = "chain"

    def __post_init__(self) -> None:
        if self.gain < 0:
            raise ValueError(f"chain gain must be non-negative, got {self.gain}")
        if self.lag < 0:
            raise ValueError(f"chain lag must be non-negative, got {self.lag}")
        if self.stride < 1:
            raise ValueError(f"chain stride must be >= 1, got {self.stride}")

    def apply(self, weights: np.ndarray, lagged: Optional[np.ndarray]) -> np.ndarray:
        """Mix ``lagged`` upstream weights into their downstream zones.

        ``lagged`` is the weight vector from ``lag`` seconds ago (the
        driver keeps the small history); ``None`` (run start) means no
        upstream contribution yet.
        """
        if lagged is None:
            return weights
        out = weights.astype(float).copy()
        out[self.stride:] += self.gain * lagged[: len(lagged) - self.stride]
        total = out.sum()
        return out / total if total > 0 else weights

    def describe(self) -> str:
        return (
            f"chain depend gain={_fmt(self.gain)} lag={_fmt(self.lag)} "
            f"stride={self.stride}"
        )


# -- memory workload ---------------------------------------------------------------
@dataclass(frozen=True)
class HotSet:
    """A write-hot working set: every ``interval`` seconds the process
    touches ``pages`` pages of its state at ``offset``.

    This is the reusable form of the dirtier loops the mode benches and
    tests previously duplicated — :func:`repro.scenarios.workload.
    start_dirtier` turns it into a live, fault-aware DES workload.
    """

    pages: int = 40
    interval: float = 0.05
    offset: int = 0

    kind = "hotset"

    def __post_init__(self) -> None:
        if self.pages < 1:
            raise ValueError(f"hotset pages must be >= 1, got {self.pages}")
        if self.interval <= 0:
            raise ValueError(
                f"hotset interval must be positive, got {self.interval}"
            )
        if self.offset < 0:
            raise ValueError(f"hotset offset must be non-negative, got {self.offset}")

    def describe(self) -> str:
        base = f"dirty hotset pages={self.pages} interval={_fmt(self.interval)}"
        if self.offset:
            base += f" offset={self.offset}"
        return base


# -- the spec -------------------------------------------------------------------------
@dataclass
class ScenarioSpec:
    """Everything a scenario-driven run is made of.

    Built either directly or from the one-liner DSL
    (:func:`repro.scenarios.dsl.parse_scenario`); :meth:`describe`
    round-trips.  The spec is inert data — the
    :class:`~repro.scenarios.driver.ScenarioDriver` brings it to life
    against a cluster.
    """

    #: Base offered population (clients), before the shapes act on it.
    clients: int = 400
    #: Run length the driver sustains the workload for (seconds).
    duration: float = 120.0
    #: Driver tick: population refresh / series sampling period.
    tick: float = 1.0
    #: Zone grid (cols x rows) and node count; rows % nodes == 0.
    grid_cols: int = 4
    grid_rows: int = 4
    nodes: int = 4
    #: Zone-server calibration: CPU per client / base (fraction of a
    #: core) and state size (pages) — campaign-scale runs use far fewer
    #: clients than Figure 5, so the per-client cost scales up.
    cpu_per_client: float = 0.003
    cpu_base: float = 0.02
    pages: int = 64
    #: Real client TCP connections each zone server holds, and whether
    #: each opens a MySQL session to the cluster's database host — the
    #: sockets a Fig. 5 migration carries along.
    conns: int = 0
    db: bool = False
    shapes: list[LoadShape] = field(default_factory=list)
    zones: ZoneWeights = field(default_factory=UniformZones)
    background: Optional[BackgroundCycle] = None
    mix: Optional[ConnectionMix] = None
    chain: Optional[DependencyChain] = None
    hotset: Optional[HotSet] = None

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"scenario needs at least one client, got {self.clients}")
        if self.duration <= 0:
            raise ValueError(f"scenario duration must be positive, got {self.duration}")
        if self.tick <= 0:
            raise ValueError(f"scenario tick must be positive, got {self.tick}")
        if self.grid_cols < 1 or self.grid_rows < 1:
            raise ValueError("scenario grid must be non-empty")
        if self.nodes < 1:
            raise ValueError("scenario needs at least one node")
        if self.conns < 0:
            raise ValueError(f"server conns must be non-negative, got {self.conns}")
        if self.grid_rows % self.nodes != 0:
            raise ValueError(
                f"{self.grid_rows} grid rows cannot split evenly across "
                f"{self.nodes} nodes"
            )

    @property
    def n_zones(self) -> int:
        return self.grid_cols * self.grid_rows

    def offered(self, t: float) -> int:
        """Offered population at ``t``: clients × Π shape factors."""
        n = float(self.clients)
        for shape in self.shapes:
            n *= shape.factor(t)
        return max(0, int(round(n)))

    def describe(self) -> str:
        """The spec in DSL form (round-trips through ``parse_scenario``)."""
        server = (
            f"server cpu_per_client={_fmt(self.cpu_per_client)} "
            f"cpu_base={_fmt(self.cpu_base)} pages={self.pages}"
        )
        if self.conns:
            server += f" conns={self.conns}"
        if self.db:
            server += " db=true"
        lines = [
            f"clients {self.clients}",
            f"duration {_fmt(self.duration)}",
            f"tick {_fmt(self.tick)}",
            f"grid {self.grid_cols}x{self.grid_rows}",
            f"nodes {self.nodes}",
            server,
        ]
        lines.extend(shape.describe() for shape in self.shapes)
        if not isinstance(self.zones, UniformZones):
            lines.append(self.zones.describe())
        if self.background is not None:
            lines.append(self.background.describe())
        if self.mix is not None:
            lines.append(self.mix.describe())
        if self.chain is not None:
            lines.append(self.chain.describe())
        if self.hotset is not None:
            lines.append(self.hotset.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<ScenarioSpec {self.clients} clients, {self.duration:g}s, "
            f"{self.grid_cols}x{self.grid_rows} zones on {self.nodes} nodes, "
            f"{len(self.shapes)} shapes>"
        )
