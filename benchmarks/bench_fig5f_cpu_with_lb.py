"""Figure 5f: per-node CPU consumption during the DVE simulation with
load balancing ENABLED.

Paper: the system automatically live-migrates zone servers away from the
nodes responsible for the crowding corners, resulting in a much lighter
imbalance in resource consumption than Fig. 5e.
"""

from repro.analysis import render_comparison, render_fig5f, run_fig5def


def run():
    return run_fig5def()


def test_fig5f_cpu_with_load_balancing(once):
    cmp = once(run)
    print()
    print(render_fig5f(cmp.with_lb))
    print()
    print(render_comparison(cmp))

    _start, end = cmp.with_lb.cpu.common_window()
    after = end * 0.5

    # The headline claim: imbalance is much lighter with LB enabled.
    spread_off = cmp.without_lb.max_spread(after)
    spread_on = cmp.with_lb.max_spread(after)
    assert spread_on < spread_off * 0.7
    assert cmp.spread_reduction() > 10.0

    # Live migrations actually happened and all succeeded quickly.
    assert len(cmp.with_lb.migrations) >= 4
    assert all(e.success for e in cmp.with_lb.migrations)
    assert all(e.freeze_time < 0.05 for e in cmp.with_lb.migrations)
