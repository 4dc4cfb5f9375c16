"""Figures 5b and 5c: worst-case process freeze time and socket bytes
transferred during the freeze phase, versus the number of TCP
connections (16 ... 1024), for the three socket-migration strategies.

The measured process is a DVE-simulation zone server: N client TCP
connections with 20 Hz / 256 B update traffic, plus a local MySQL
session (Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from ..cluster import Cluster, ClusterConfig
from ..core import LiveMigrationConfig, MigrationReport, install_transd, migrate_process
from ..testing import connect_local_tcp, establish_clients, run_for
from .report import render_table

__all__ = ["SweepConfig", "SweepPoint", "FreezeSweepResult", "run_freeze_sweep", "render_fig5b", "render_fig5c"]

DEFAULT_CONN_COUNTS = (16, 32, 64, 128, 256, 512, 1024)
DEFAULT_STRATEGIES = ("iterative", "collective", "incremental-collective")


@dataclass(frozen=True)
class SweepConfig:
    conn_counts: Sequence[int] = DEFAULT_CONN_COUNTS
    strategies: Sequence[str] = DEFAULT_STRATEGIES
    #: Worst case over this many repetitions (the paper plots worst case).
    repetitions: int = 3
    #: Zone-server memory and traffic.
    memory_pages: int = 1500
    update_hz: float = 20.0
    update_bytes: int = 256
    dirty_pages_per_tick: int = 30
    warmup: float = 0.3
    seed: int = 42
    with_mysql: bool = True
    migration: LiveMigrationConfig = field(default_factory=LiveMigrationConfig)
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


def _one_migration(
    cfg: SweepConfig,
    n: int,
    strategy: str,
    seed: int,
    trace_path: Optional[Path] = None,
) -> MigrationReport:
    cluster = Cluster(
        ClusterConfig(n_nodes=2, with_db=cfg.with_mysql, master_seed=seed)
    )
    tracer = cluster.env.enable_tracing() if trace_path is not None else None
    node = cluster.nodes[0]
    proc = node.kernel.spawn_process("zone_serv")
    area = proc.address_space.mmap(cfg.memory_pages, tag="world-state")
    _, children, _ = establish_clients(cluster, node, proc, 27960, n, settle=2.0)
    if cfg.with_mysql:
        install_transd(cluster.db)
        db_proc = cluster.db.kernel.spawn_process("mysqld")
        connect_local_tcp(cluster, node, proc, cluster.db, db_proc, 3306)

    def rt_loop():
        interval = 1.0 / cfg.update_hz
        while True:
            yield from proc.check_frozen()
            yield cluster.env.timeout(interval)
            yield from proc.check_frozen()
            proc.address_space.write_range(area, count=cfg.dirty_pages_per_tick)
            for ch in children:
                ch.send("update", cfg.update_bytes)

    cluster.env.process(rt_loop())
    run_for(cluster, cfg.warmup)
    ev = migrate_process(
        node, cluster.nodes[1], proc, cfg.migration.with_overrides(strategy=strategy)
    )
    report = cluster.env.run(until=ev)
    if tracer is not None:
        from ..obs import write_jsonl

        write_jsonl(trace_path, tracer)
    cluster.close()
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
            reports = []
            for rep in range(cfg.repetitions):
                trace_path = (
                    cfg.trace_dir / f"fig5b_n{n}_{strategy}_rep{rep}.jsonl"
                    if cfg.trace_dir is not None
                    else None
                )
                reports.append(
                    _one_migration(
                        cfg, n, strategy, seed=cfg.seed + rep, trace_path=trace_path
                    )
                )
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
