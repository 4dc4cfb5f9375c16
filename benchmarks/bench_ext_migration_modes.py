"""Extension experiment: precopy vs. post-copy vs. hybrid migration.

The paper's mechanism is pure precopy; this sweep adds the two classic
alternatives (post-copy demand paging and hybrid warm-up-then-switch)
plus the channel's delta-compression stage and auto-convergence, and
compares them on the figures that matter for a loaded DVE node:

* **freeze time** — hard downtime (the paper's figure 5b metric);
* **degradation seconds** — freeze + post-copy fault stalls +
  auto-convergence throttling (application-visible disruption);
* **total time** — start to fully-resident on the destination;
* **bytes on wire** — total migration traffic.

Three working sets:

* **cold** — idle process (also the zero-page compression showcase:
  a never-written area collapses to markers);
* **hot** — a rotating writer re-dirtying pages faster than precopy's
  final round drains them but *slower* than the post-copy push
  bandwidth: precopy's freeze dump stays large while the prioritized
  background push outruns the writer, so post-copy/hybrid land with a
  near-zero freeze and only a handful of fault stalls;
* **churn** — a whole-working-set rewrite each tick, the
  non-convergent worst case: precopy resends the set every round
  (XBZRLE's delta cache pays off) and auto-convergence engages.

Set ``REPRO_BENCH_QUICK=1`` for a CI-sized run.
"""

import os

from repro.analysis import render_table
from repro.core import LiveMigrationConfig
from repro.scenarios.workload import RotatingWindow
from repro.testing import MigrationWorld, WorldSpec

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
PAGES = 512 if QUICK else 4096
#: Hot workload: a 32-page window written every 2 ms (~16 pages/ms),
#: rotating through the whole area.  Below the ~30 pages/ms push
#: bandwidth, above the ~40 ms final precopy round's drain.
HOT_COUNT = 32
#: Churn workload: rewrite 1/16th of the area every tick — the write
#: rate scales with the area, so no precopy round ever converges.
CHURN_FRACTION = 16
TICK = 0.002

MODES = ("precopy", "postcopy", "hybrid")


def one(mode, workload, compression="none", auto_converge=False, pages=None):
    """One migration under the given mode/workload; returns metrics."""
    pages = PAGES if pages is None else pages
    writer = None
    if workload != "cold":
        count = HOT_COUNT if workload == "hot" else pages // CHURN_FRACTION
        writer = RotatingWindow(count, TICK)
    world = MigrationWorld(WorldSpec(pages=pages, writer=writer))
    world.warm()

    cfg = LiveMigrationConfig(
        mode=mode, compression=compression, auto_converge=auto_converge
    )
    t0 = world.cluster.env.now
    report = world.migrate(cfg)
    problems = world.check()
    world.close()
    variant = "autoconv" if auto_converge else compression
    assert not problems, f"{mode}/{variant} {workload}: {'; '.join(problems)}"
    return {
        "mode": mode,
        "workload": workload,
        "variant": variant,
        "freeze_ms": report.freeze_time * 1e3,
        "degradation_ms": report.degradation_seconds * 1e3,
        "total_ms": (report.finished_at - t0) * 1e3,
        "wire_mb": report.bytes.total / 1e6,
        "rounds": report.precopy_rounds,
        "postcopy_faults": report.postcopy_faults,
        "saved_mb": report.compression_saved_bytes / 1e6,
    }


def run(pages=None):
    rows = []
    for workload in ("cold", "hot"):
        for mode in MODES:
            rows.append(one(mode, workload, pages=pages))
    rows.append(one("precopy", "cold", compression="zero-page", pages=pages))
    rows.append(one("precopy", "churn", pages=pages))
    rows.append(one("precopy", "churn", compression="xbzrle", pages=pages))
    rows.append(one("precopy", "churn", auto_converge=True, pages=pages))
    return rows


def index(rows):
    return {(r["workload"], r["mode"], r["variant"]): r for r in rows}


def bench_result(quick: bool) -> dict:
    """Recordable run for ``repro-bench`` (see repro.obs.bench)."""
    from repro.obs import evaluate_slos

    pages = 512 if quick else 4096
    rows = run(pages=pages)
    by = index(rows)
    pre = by[("hot", "precopy", "none")]
    post = by[("hot", "postcopy", "none")]
    hyb = by[("hot", "hybrid", "none")]
    churn = by[("churn", "precopy", "none")]
    xbz = by[("churn", "precopy", "xbzrle")]
    zp = by[("cold", "precopy", "zero-page")]
    cold_pre = by[("cold", "precopy", "none")]

    lower = {"unit": "ms", "direction": "lower"}
    ratio = {"unit": "ratio", "direction": "lower"}
    metrics = {
        "hot_precopy_freeze_ms": {"value": pre["freeze_ms"], **lower},
        "hot_postcopy_freeze_ms": {"value": post["freeze_ms"], **lower},
        "hot_hybrid_freeze_ms": {"value": hyb["freeze_ms"], **lower},
        "hot_postcopy_degradation_ms": {"value": post["degradation_ms"], **lower},
        "hot_hybrid_degradation_ms": {"value": hyb["degradation_ms"], **lower},
        # Mode wins expressed as ratios so the SLOs are scale-free.
        "postcopy_downtime_ratio": {
            "value": post["freeze_ms"] / pre["freeze_ms"], **ratio
        },
        "hybrid_downtime_ratio": {
            "value": hyb["freeze_ms"] / pre["freeze_ms"], **ratio
        },
        "postcopy_degradation_ratio": {
            "value": post["degradation_ms"] / pre["degradation_ms"], **ratio
        },
        "hybrid_degradation_ratio": {
            "value": hyb["degradation_ms"] / pre["degradation_ms"], **ratio
        },
        "xbzrle_wire_ratio": {"value": xbz["wire_mb"] / churn["wire_mb"], **ratio},
        "zero_page_wire_ratio": {
            "value": zp["wire_mb"] / cold_pre["wire_mb"], **ratio
        },
    }
    values = {k: m["value"] for k, m in metrics.items()}
    slos = evaluate_slos(
        # The acceptance shape: execution-first modes beat precopy on
        # both downtime and degradation for a write-hot working set,
        # and delta compression cuts >= 30% of the wire bytes.
        [
            "postcopy_downtime_ratio < 1.0",
            "hybrid_downtime_ratio < 1.0",
            "postcopy_degradation_ratio < 1.0",
            "hybrid_degradation_ratio < 1.0",
            "xbzrle_wire_ratio < 0.7",
            "zero_page_wire_ratio < 0.7",
        ],
        values,
    )
    return {
        "params": {
            "pages": pages,
            "hot_count": HOT_COUNT,
            "churn_fraction": CHURN_FRACTION,
            "tick": TICK,
            "modes": list(MODES),
            "rows": rows,
        },
        "metrics": metrics,
        "slos": slos.to_dict(),
    }


def test_ext_migration_modes(once):
    rows = once(run)
    print()
    print(
        render_table(
            [
                "workload",
                "mode",
                "variant",
                "freeze (ms)",
                "degradation (ms)",
                "total (ms)",
                "wire (MB)",
                "rounds",
                "faults",
            ],
            [
                (
                    r["workload"],
                    r["mode"],
                    r["variant"],
                    r["freeze_ms"],
                    r["degradation_ms"],
                    r["total_ms"],
                    r["wire_mb"],
                    r["rounds"],
                    r["postcopy_faults"],
                )
                for r in rows
            ],
            title="Extension: migration modes under cold/hot working sets",
        )
    )
    by = index(rows)
    pre = by[("hot", "precopy", "none")]
    # Execution-first modes win downtime and degradation on the hot set.
    for mode in ("postcopy", "hybrid"):
        r = by[("hot", mode, "none")]
        assert r["freeze_ms"] < pre["freeze_ms"]
        assert r["degradation_ms"] < pre["degradation_ms"]
    # Delta compression removes >= 30% of the churn set's wire bytes;
    # zero-page detection collapses the never-written cold area.
    assert (
        by[("churn", "precopy", "xbzrle")]["wire_mb"]
        <= 0.7 * by[("churn", "precopy", "none")]["wire_mb"]
    )
    assert (
        by[("cold", "precopy", "zero-page")]["wire_mb"]
        <= 0.7 * by[("cold", "precopy", "none")]["wire_mb"]
    )
