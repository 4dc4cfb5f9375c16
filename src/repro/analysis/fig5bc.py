"""Figures 5b and 5c: worst-case process freeze time and socket bytes
transferred during the freeze phase, versus the number of TCP
connections (16 ... 1024), for the three socket-migration strategies.

The measured process is a DVE-simulation zone server: N client TCP
connections with 20 Hz / 256 B update traffic, plus a local MySQL
session (Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from ..core import LiveMigrationConfig, MigrationReport
from ..testing import CLIENT_UPDATES, MigrationWorld, WorldSpec
from .report import render_table

__all__ = ["SweepConfig", "SweepPoint", "FreezeSweepResult", "FIG5B_WORLD", "run_freeze_sweep", "render_fig5b", "render_fig5c"]

DEFAULT_CONN_COUNTS = (16, 32, 64, 128, 256, 512, 1024)
DEFAULT_STRATEGIES = ("iterative", "collective", "incremental-collective")


@dataclass(frozen=True)
class SweepConfig:
    conn_counts: Sequence[int] = DEFAULT_CONN_COUNTS
    strategies: Sequence[str] = DEFAULT_STRATEGIES
    #: Worst case over this many repetitions (the paper plots worst case).
    repetitions: int = 3
    seed: int = 42
    #: When set, each migration is traced and its event stream written
    #: as ``trace_dir/fig5b_n{N}_{strategy}_rep{R}.jsonl``.
    trace_dir: Optional[Path] = None


@dataclass
class SweepPoint:
    n_connections: int
    strategy: str
    #: Worst case across repetitions, like the paper's Fig. 5b/5c.
    freeze_time: float
    freeze_socket_bytes: int
    precopy_socket_bytes: int
    total_time: float
    reports: list[MigrationReport] = field(default_factory=list)


@dataclass
class FreezeSweepResult:
    config: SweepConfig
    points: list[SweepPoint]

    def point(self, n: int, strategy: str) -> SweepPoint:
        for p in self.points:
            if p.n_connections == n and p.strategy == strategy:
                return p
        raise KeyError((n, strategy))

    def series(self, strategy: str) -> list[SweepPoint]:
        return sorted(
            (p for p in self.points if p.strategy == strategy),
            key=lambda p: p.n_connections,
        )


#: The measured zone server (Section VI-D): 1500 pages, a MySQL session
#: and a 256 B update to each client at 20 Hz; a run sets clients and seed.
FIG5B_WORLD = WorldSpec(name="zone_serv", pages=1500, writer=CLIENT_UPDATES, peer=True, warmup=0.3)


def _one_migration(cfg: SweepConfig, n: int, strategy: str, rep: int) -> MigrationReport:
    trace = cfg.trace_dir is not None
    world = MigrationWorld(replace(FIG5B_WORLD, clients=n, seed=cfg.seed + rep, trace=trace))
    world.warm()
    report = world.migrate(LiveMigrationConfig(strategy=strategy))
    if trace:
        from ..obs import write_jsonl

        write_jsonl(cfg.trace_dir / f"fig5b_n{n}_{strategy}_rep{rep}.jsonl", world.tracer)
    world.close()
    return report


def run_freeze_sweep(config: Optional[SweepConfig] = None) -> FreezeSweepResult:
    """The full Fig. 5b/5c parameter sweep.

    Only *successful* migrations enter a point's aggregates: a failed
    run has no completed freeze interval (``freeze_time is None``) and
    would silently poison a worst-case plot.  A point where every
    repetition failed raises rather than fabricating numbers.
    """
    cfg = config or SweepConfig()
    points = []
    for n in cfg.conn_counts:
        for strategy in cfg.strategies:
            reports = [_one_migration(cfg, n, strategy, rep) for rep in range(cfg.repetitions)]
            ok = [r for r in reports if r.success and r.freeze_time is not None]
            if not ok:
                errors = "; ".join(sorted({r.error or "?" for r in reports}))
                raise RuntimeError(
                    f"fig5b sweep: all {len(reports)} repetitions failed "
                    f"for n={n} strategy={strategy}: {errors}"
                )
            worst = max(ok, key=lambda r: r.freeze_time)
            points.append(
                SweepPoint(
                    n_connections=n,
                    strategy=strategy,
                    freeze_time=worst.freeze_time,
                    freeze_socket_bytes=max(r.bytes.freeze_sockets for r in ok),
                    precopy_socket_bytes=worst.bytes.precopy_sockets,
                    total_time=worst.total_time,
                    reports=reports,
                )
            )
    return FreezeSweepResult(config=cfg, points=points)


def render_fig5b(result: FreezeSweepResult) -> str:
    """Worst-case process freeze time (ms) vs number of connections."""
    strategies = list(result.config.strategies)
    rows = []
    for n in result.config.conn_counts:
        rows.append(
            [n] + [result.point(n, s).freeze_time * 1e3 for s in strategies]
        )
    return render_table(
        ["connections"] + [f"{s} (ms)" for s in strategies],
        rows,
        title="Figure 5b: worst-case process freeze time vs TCP connections",
    )


def render_fig5c(result: FreezeSweepResult) -> str:
    """Socket bytes transferred during the freeze phase."""
    strategies = list(result.config.strategies)
    rows = []
    for n in result.config.conn_counts:
        rows.append(
            [n]
            + [result.point(n, s).freeze_socket_bytes / 1e3 for s in strategies]
        )
    return render_table(
        ["connections"] + [f"{s} (kB)" for s in strategies],
        rows,
        title="Figure 5c: socket data transferred during the freeze phase",
        floatfmt=".1f",
    )
