"""Figure 5e: per-node CPU consumption during the DVE simulation with
load balancing DISABLED.

Paper: node1 and node5 (upper and lower regions of the virtual space)
suffer increasing load concentration, eventually consuming over 95% of
their CPUs, while node3 and node4 gradually fall below 65%.
"""

from repro.analysis import render_fig5e
from repro.analysis.fig5def import build_fig5_world, run_fig5


def run():
    return run_fig5(build_fig5_world(load_balancing=False))


def test_fig5e_cpu_without_load_balancing(once):
    result = once(run)
    print()
    print(render_fig5e(result))

    loads = result.final_loads()
    start, _end = result.cpu.common_window()
    initial = {n: result.cpu[n].value_at(start) for n in result.cpu.names()}

    # All nodes start in the same band (uniform client distribution).
    assert max(initial.values()) - min(initial.values()) < 8.0

    # Corner nodes end heavily loaded (paper: > 95%).
    assert loads["node1"] > 90.0
    assert loads["node5"] > 90.0
    # Middle nodes drained (paper: below 65%).
    assert loads["node3"] < 65.0
    # node1/node5 clearly dominate node3/node4 at the end.
    assert loads["node1"] - loads["node3"] > 25.0
    assert loads["node5"] - loads["node4"] > 20.0
    # No migrations ever happened.
    assert result.migrations == []
