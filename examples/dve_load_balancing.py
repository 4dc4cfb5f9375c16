#!/usr/bin/env python
"""Reproduce Figures 5d/5e/5f: OS-level load balancing of a DVE.

Runs the Section VI-C simulation twice — 10,000 clients drifting toward
the virtual-space corners over 100 zones on 5 server nodes — once with
the load-balancing middleware disabled and once enabled, then prints the
per-node CPU series, the migration log and the zone-server process
distribution.

Full scale takes ~11 s (two 15-minute simulated runs on a 2-vCPU host);
pass --quick for the reduced Fig. 5 campaign (~4 s).

Run:  python examples/dve_load_balancing.py [--quick]
"""

import sys

from repro.analysis import (
    FIG5_CAMPAIGN,
    FIG5_QUICK_CAMPAIGN,
    render_comparison,
    render_fig5d,
    render_fig5e,
    render_fig5f,
    run_fig5def,
)


def main() -> None:
    if "--quick" in sys.argv:
        campaign = FIG5_QUICK_CAMPAIGN
        print("Running the reduced DVE load-balancing scenario...")
    else:
        campaign = FIG5_CAMPAIGN
        print("Running the full 15-minute, 10,000-client DVE scenario "
              "(twice: LB off, then LB on)...")

    cmp = run_fig5def(campaign)
    print()
    print(render_fig5e(cmp.without_lb))
    print()
    print(render_fig5f(cmp.with_lb))
    print()
    print(render_fig5d(cmp.with_lb))
    print()
    print(render_comparison(cmp))
    print()
    print("Paper reference: without LB, node1/node5 exceed 95% CPU while "
          "node3/node4 fall below 65%; with LB the middleware live-"
          "migrates zone servers and the imbalance is much lighter.")


if __name__ == "__main__":
    main()
