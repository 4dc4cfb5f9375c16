#!/usr/bin/env python
"""Power management by live migration (a Section-VIII future-work case).

At night the DVE empties out: the conductors' ``consolidate`` strategy
drains lightly loaded nodes by live-migrating their zone servers —
connections intact — and puts the empty machines to sleep.  When the
morning crowd returns, the sleeping nodes wake and the ordinary load
balancing resumes.

Run:  python examples/power_management.py
"""

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.middleware import ConductorConfig, install_conductor
from repro.testing import run_for


def main() -> None:
    cluster = build_cluster(n_nodes=4, with_db=False)
    scan = [n.local_ip for n in cluster.nodes]
    config = ConductorConfig(
        migration=LiveMigrationConfig(initial_round_timeout=0.08),
        # A short calm-down lets a node drain in seconds, not minutes.
        calm_down=2.0,
        strategy="consolidate",
        strategy_params={
            "low_watermark": 35.0,
            "target_cap": 80.0,
            "wake_watermark": 85.0,
        },
    )
    conductors = [
        install_conductor(node, scan, cluster.node_by_local_ip, config)
        for node in cluster.nodes
    ]

    # Three zone servers per node, daytime load.
    procs = []
    for node in cluster.nodes:
        for k in range(3):
            proc = node.kernel.spawn_process(f"zone_{node.name}_{k}")
            proc.address_space.mmap(64)
            node.kernel.cpu.set_demand(proc, 0.5)  # 75% per node total
            node.daemons["conductor"].manage(proc)
            procs.append(proc)

    def loads():
        return {n.name: f"{n.kernel.cpu.utilization():.0f}%" for n in cluster.nodes}

    def asleep():
        return sorted(c.host.name for c in conductors if c.asleep)

    run_for(cluster, 5.0)
    print(f"daytime  loads: {loads()}  asleep: {asleep()}")

    # Night falls: players log off, demand collapses.
    for proc in procs:
        proc.kernel.cpu.set_demand(proc, 0.08)
    run_for(cluster, 60.0)
    print(f"night    loads: {loads()}  asleep: {asleep()}")

    # Morning: the crowd returns.
    for proc in procs:
        proc.kernel.cpu.set_demand(proc, 0.5)
    run_for(cluster, 60.0)
    print(f"morning  loads: {loads()}  asleep: {asleep()}")

    print("\nmigration log:")
    events = sorted(
        (e for c in conductors for e in c.events), key=lambda e: e.time
    )
    for e in events:
        ft = f"{e.freeze_time * 1e3:.1f} ms freeze" if e.freeze_time is not None else "failed"
        print(f"  t={e.time:6.1f}s {e.process_name} {e.source} -> {e.destination} ({ft})")
    for c in conductors:
        p = c.planner
        print(f"  {c.host.name}: slept {p.sleeps_total}x, woke {p.wakes_total}x")


if __name__ == "__main__":
    main()
