"""Figure 5d: zone-server process distribution among nodes over time
with load balancing enabled.

Paper: part of the server processes running on node1 and node5 are
relocated — their counts decrease — to nodes such as node3 and node4,
whose counts increase in turn.
"""

from repro.analysis import render_fig5d
from repro.analysis.fig5def import build_fig5_world, run_fig5


def run():
    return run_fig5(build_fig5_world(load_balancing=True))


def test_fig5d_zone_server_distribution(once):
    result = once(run)
    print()
    print(render_fig5d(result))

    counts = result.final_proc_counts()
    # Total process count is conserved: migration, not creation.
    assert sum(counts.values()) == 100

    # The corner (overloaded) nodes shed processes...
    assert counts["node1"] + counts["node5"] < 40
    # ... which ended up on the middle nodes.
    assert counts["node3"] + counts["node4"] > 40

    # Every relocation left node1/node5 or entered node3/node4.
    sheds = [e for e in result.migrations if e.source in ("node1", "node5")]
    assert len(sheds) >= 2
    # Migrations were live: sub-50ms downtime each.
    assert all(e.freeze_time < 0.05 for e in result.migrations)
