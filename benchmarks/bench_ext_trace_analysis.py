"""Extension: the trace-analysis pipeline itself, end to end.

Not a paper figure — this guards the observability stack the other
benchmarks lean on.  One traced migration is pushed through
every analyzer (causal graph, downtime critical path, Perfetto export,
trace diff) and the *structural* outputs are recorded: counts of nodes,
edges, segments, flows, and the critical-path attribution closure.
Everything measured is a deterministic function of the simulation, so
any drift in these numbers means the trace vocabulary or an analyzer
changed shape — exactly what ``repro-bench compare`` should catch.
"""

from repro.analysis import render_table
from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig, migrate_process
from repro.obs import (
    build_causal_graph,
    diff_traces,
    downtime_critical_path,
    migration_slices,
    to_chrome_trace,
    total_critical_path,
)
from repro.testing import establish_clients, run_for

PAGES = 2048
CLIENTS = 8


def traced_run():
    cluster = build_cluster(n_nodes=2, with_db=False)
    tracer = cluster.env.enable_tracing()
    node = cluster.nodes[0]
    proc = node.kernel.spawn_process("zone_serv0")
    proc.address_space.mmap(PAGES, tag="heap")
    establish_clients(cluster, node, proc, 27960, CLIENTS)
    run_for(cluster, 0.2)
    ev = migrate_process(
        node,
        cluster.nodes[1],
        proc,
        LiveMigrationConfig(strategy="incremental-collective"),
    )
    report = cluster.env.run(until=ev)
    assert report.success
    return tracer, report


def run():
    tracer, _ = traced_run()

    graph = build_causal_graph(tracer.events)
    (sl,) = migration_slices(tracer.events)
    down = downtime_critical_path(sl)
    total = total_critical_path(sl)
    doc = to_chrome_trace(tracer.events)
    flows = sum(1 for e in doc["traceEvents"] if e["ph"] == "s")
    moved = sum(len(d.ranked()) for d in diff_traces(tracer.events, tracer.events))

    down_closure = 100.0 * sum(s.duration for s in down.segments) / down.total
    total_closure = 100.0 * sum(s.duration for s in total.segments) / total.total
    return {
        "trace_events": len(tracer.events),
        "graph_nodes": len(graph),
        "graph_edges": len(graph.edges),
        "explicit_edges": sum(
            1 for e in graph.edges if e.kind in ("caused_by", "parent")
        ),
        "downtime_segments": len(down.segments),
        "downtime_closure_pct": down_closure,
        "total_closure_pct": total_closure,
        "perfetto_events": len(doc["traceEvents"]),
        "perfetto_flows": flows,
        "self_diff_moved": moved,
    }


def bench_result(quick: bool) -> dict:
    """Recordable run for ``repro-bench`` (see repro.obs.bench)."""
    from repro.obs import evaluate_slos

    r = run()
    metrics = {
        "graph_nodes": {
            "value": float(r["graph_nodes"]), "unit": "count", "direction": "higher"
        },
        "explicit_edges": {
            "value": float(r["explicit_edges"]),
            "unit": "count",
            "direction": "higher",
        },
        "downtime_segments": {
            "value": float(r["downtime_segments"]),
            "unit": "count",
            "direction": "lower",
        },
        "downtime_closure_pct": {
            "value": r["downtime_closure_pct"], "unit": "%", "direction": "higher"
        },
        "perfetto_flows": {
            "value": float(r["perfetto_flows"]),
            "unit": "count",
            "direction": "higher",
        },
        "self_diff_moved": {
            "value": float(r["self_diff_moved"]),
            "unit": "count",
            "direction": "lower",
        },
    }
    values = {k: m["value"] for k, m in metrics.items()}
    slos = evaluate_slos(
        [
            "downtime_closure_pct > 99.999",
            "self_diff_moved < 1",
            "perfetto_flows > 0",
        ],
        values,
    )
    return {
        "params": {"pages": PAGES, "clients": CLIENTS, "quick": quick},
        "metrics": metrics,
        "histograms": {},
        "slos": slos.to_dict(),
    }


def test_ext_trace_analysis(once):
    r = once(run)
    print()
    print(
        render_table(
            ["quantity", "value"],
            [[k, f"{v:g}"] for k, v in r.items()],
            title="trace-analysis pipeline",
        )
    )
    # Attribution closure is the headline invariant: exactly 100%.
    assert abs(r["downtime_closure_pct"] - 100.0) < 1e-6
    assert abs(r["total_closure_pct"] - 100.0) < 1e-6
    # Every graph edge is an explicit annotation.
    assert r["explicit_edges"] == r["graph_edges"] > 0
    # A trace diffed against itself moves nothing.
    assert r["self_diff_moved"] == 0
    assert r["perfetto_flows"] > 0
