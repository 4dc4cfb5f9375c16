#!/usr/bin/env python
"""Post-copy and hybrid live migration of a write-hot zone server.

The paper's mechanism is precopy: copy memory first, freeze, move.  For
a write-hot DVE zone (players mutating world state faster than rounds
can drain it) precopy's final freeze dump grows with the dirty set.
Post-copy inverts the order — freeze almost immediately, move the
execution context, resume on the destination, and make memory resident
afterwards via ``pagefaultd`` demand fetches plus a prioritized
background push.  Hybrid runs one precopy warm-up round first so most
faults never happen.

This example migrates the same hot zone server under all three modes
(plus XBZRLE delta compression) and prints the trade-off: post-copy
trades precopy's long freeze for a short blip plus a few fault stalls.

Run:  python examples/postcopy_migration.py [--trace OUT.jsonl]
"""

import argparse
from pathlib import Path

from repro.analysis import render_table
from repro.core import LiveMigrationConfig
from repro.obs import trace_to_jsonl
from repro.scenarios.workload import HotSet
from repro.testing import MigrationWorld, WorldSpec

PAGES = 512
HOT_PAGES = 64


def migrate_once(mode, compression="none", trace=False):
    """Fresh cluster, hot zone server, one migration under ``mode``."""
    # Players keep mutating a hot slice of the world throughout.
    world = MigrationWorld(
        WorldSpec(
            name="zone_serv0", pages=PAGES, writer=HotSet(pages=HOT_PAGES, interval=0.002),
            clients=2, warmup=0.5, trace=trace,
        )
    )
    world.warm()
    report = world.migrate(LiveMigrationConfig(mode=mode, compression=compression))
    problems = world.check()  # the workload resumes on the destination
    world.close()
    assert not problems, problems
    return report, world.tracer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="OUT", help="write the post-copy trace as JSONL")
    args = parser.parse_args()

    rows = []
    tracer = None
    for mode, compression in (
        ("precopy", "none"),
        ("precopy", "xbzrle"),
        ("postcopy", "none"),
        ("hybrid", "none"),
    ):
        report, t = migrate_once(mode, compression, trace=(mode == "postcopy"))
        if t is not None:
            tracer = t
        rows.append(
            (
                mode,
                compression,
                report.freeze_time * 1e3,
                report.degradation_seconds * 1e3,
                report.bytes.total / 1e6,
                report.precopy_rounds,
                report.postcopy_faults,
            )
        )

    print(
        render_table(
            ["mode", "compression", "freeze (ms)", "degradation (ms)",
             "wire (MB)", "rounds", "faults"],
            rows,
            title="Migrating a write-hot zone server (512 pages, 64 hot)",
        )
    )

    print("\nwhat the post-copy trace saw:")
    shown = 0
    for ev in tracer.events:
        if ev.name in (
            "mig.mode", "mig.postcopy.enter", "migd.postcopy.arm",
            "pagefaultd.fault", "mig.postcopy.push", "migd.postcopy.done",
        ):
            detail = {k: v for k, v in ev.fields.items()
                      if k in ("mode", "residual_pages", "npages", "pages",
                               "remaining", "faults", "fetched_pages")}
            print(f"  t={ev.time:7.4f}  {ev.name:22s} {detail}")
            shown += 1
            if shown >= 12:
                print("  ...")
                break

    if args.trace:
        Path(args.trace).write_text(trace_to_jsonl(tracer))
        print(f"\ntrace written to {args.trace}")

    # The post-copy freeze is a blip; precopy's scales with the hot set.
    freeze = {(m, c): f for m, c, f, *_ in rows}
    assert freeze[("postcopy", "none")] < freeze[("precopy", "none")]
    assert freeze[("hybrid", "none")] < freeze[("precopy", "none")]


if __name__ == "__main__":
    main()
