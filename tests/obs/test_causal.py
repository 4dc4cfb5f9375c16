"""The causal trace graph and the critical-path analyzer.

Two invariants anchor everything here: (1) the protocol's cause → effect
handoffs are explicit ``caused_by`` annotations in every trace, across
nodes included; (2) the downtime critical path is an exhaustive
partition — its segment durations sum to exactly the measured downtime.
"""

import pytest

from repro.core import LiveMigrationConfig, migrate_process
from repro.des import Environment
from repro.obs import (
    build_causal_graph,
    degradation_breakdown,
    downtime_critical_path,
    migration_slices,
    render_critical_path,
    total_critical_path,
)
from repro.scenarios.workload import HotSet, start_dirtier
from repro.testing import run_for

from .test_trace_migration import traced_migration

#: The protocol's cause → effect handoffs: (cause record, effect record).
PROTOCOL_PAIRS = (
    ("mig.precopy.round", "migd.stage"),
    ("mig.freeze.transfer", "migd.restore"),
    ("migd.restore", "migd.thaw"),
    ("pagefaultd.fault", "migd.postcopy.serve"),
)


def mode_migration(cluster, mode, hotset):
    """A traced migration in ``mode`` of a process re-dirtying ``hotset``
    (which keeps faulting after a post-copy thaw)."""
    tracer = cluster.env.enable_tracing()
    node = cluster.nodes[0]
    proc = node.kernel.spawn_process("zone_serv0")
    area = proc.address_space.mmap(2048, tag="heap")
    stats = start_dirtier(cluster.env, proc, area, hotset)
    run_for(cluster, 0.1)
    ev = migrate_process(node, cluster.nodes[1], proc, LiveMigrationConfig(mode=mode))
    report = cluster.env.run(until=ev)
    run_for(cluster, 0.5)
    return tracer, report, stats


class TestCausalOptIn:
    def test_session_transitions_chain_back_to_mig_start(self, two_nodes):
        causal, _ = traced_migration(two_nodes, "incremental-collective")
        graph = build_causal_graph(causal.events)
        (complete,) = [n for n in graph.nodes.values() if n.name == "mig.complete"]
        chain = graph.chain(complete.cid)
        assert chain[0].name == "mig.start"
        assert chain[-1].name == "mig.complete"
        assert any(n.name == "session.state" for n in chain)

    def test_cross_node_effects_carry_causes(self, two_nodes):
        causal, _ = traced_migration(two_nodes, "incremental-collective")
        stages = [e for e in causal.events if e.name == "migd.stage"]
        assert stages and all(e.caused_by is not None for e in stages)
        (restore,) = [
            e
            for e in causal.events
            if e.name == "migd.restore" and e.kind == "begin"
        ]
        assert restore.caused_by is not None


class TestCausalGraph:
    @pytest.mark.parametrize(
        "mode, pairs",
        [
            ("precopy", PROTOCOL_PAIRS[:3]),
            ("postcopy", PROTOCOL_PAIRS[1:]),
            ("hybrid", PROTOCOL_PAIRS),
        ],
        ids=["precopy", "postcopy", "hybrid"],
    )
    def test_protocol_pairs_have_explicit_edges(self, two_nodes, mode, pairs):
        """Every effect record of each protocol pair the mode exercises
        has an explicit ``caused_by`` edge from its cause record."""
        tracer, report, _ = mode_migration(
            two_nodes, mode, HotSet(pages=64, interval=0.002, offset=1900)
        )
        assert report.success
        graph = build_causal_graph(tracer.events)
        assert {e.kind for e in graph.edges} == {"caused_by", "parent"}
        for src_name, dst_name in pairs:
            effects = [n for n in graph.nodes.values() if n.name == dst_name]
            assert effects, f"{mode}: no {dst_name} records"
            for eff in effects:
                causes = {
                    graph.nodes[e.src].name
                    for e in graph.edges
                    if e.dst == eff.cid and e.src in graph.nodes
                }
                assert src_name in causes, (mode, dst_name, causes)

    def test_empty_trace(self):
        graph = build_causal_graph([])
        assert len(graph) == 0 and graph.edges == []


class TestDowntimeCriticalPath:
    def test_attribution_sums_to_measured_downtime(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "incremental-collective")
        (sl,) = migration_slices(tracer.events)
        path = downtime_critical_path(sl)
        freeze = [e for e in sl.events if e.name == "mig.freeze.enter"]
        thaw = [e for e in sl.events if e.name == "migd.thaw"]
        measured = thaw[0].time - freeze[0].time
        assert path.total == pytest.approx(measured, abs=1e-12)
        assert sum(seg.duration for seg in path.segments) == pytest.approx(
            measured, abs=1e-9
        )
        assert sum(pct for _, _, pct in path.attribution()) == pytest.approx(
            100.0, abs=1e-6
        )

    def test_segments_partition_the_window(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "collective")
        (sl,) = migration_slices(tracer.events)
        path = downtime_critical_path(sl)
        assert path.segments[0].start == path.window[0]
        assert path.segments[-1].end == path.window[1]
        for a, b in zip(path.segments, path.segments[1:]):
            assert a.end == b.start
            assert a.label != b.label  # adjacent same-label runs merge

    def test_expected_phases_present(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "incremental-collective")
        (sl,) = migration_slices(tracer.events)
        labels = {seg.label for seg in downtime_critical_path(sl).segments}
        assert "network.transfer" in labels
        assert "restore" in labels
        assert labels <= {
            "freeze.signal",
            "freeze.barrier",
            "freeze.serialize",
            "network.transfer",
            "restore",
            "freeze.other",
        }

    def test_unfinished_span_truncated_window(self):
        """A trace that ends mid-freeze (killed run) is analysed up to
        its last record, marked truncated, and still sums to 100%."""
        env = Environment()
        tr = env.enable_tracing()

        def script(_ev):
            tr.event("mig.start", pid=7, session="a>b#7", strategy="iterative")
            tr.event("mig.freeze.enter", pid=7, session="a>b#7")
            tr.begin("mig.freeze.barrier", pid=7, session="a>b#7")
            env.timeout(0.5).callbacks.append(
                lambda _e: tr.event("mig.freeze.image", pid=7, session="a>b#7")
            )

        env.timeout(1.0).callbacks.append(script)
        env.run()
        (sl,) = migration_slices(tr.events)
        path = downtime_critical_path(sl)
        assert path.truncated
        assert path.total == pytest.approx(0.5)
        assert sum(s.duration for s in path.segments) == pytest.approx(path.total)
        assert {s.label for s in path.segments} == {"freeze.barrier"}

    def test_no_freeze_returns_none(self):
        env = Environment()
        tr = env.enable_tracing()
        tr.event("mig.start", pid=7, session="a>b#7", strategy="iterative")
        (sl,) = migration_slices(tr.events)
        assert downtime_critical_path(sl) is None


class TestTotalPathAndDegradation:
    def test_total_path_covers_whole_migration(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "incremental-collective")
        (sl,) = migration_slices(tracer.events)
        path = total_critical_path(sl)
        assert path.window == (sl.start.time, sl.terminal.time)
        assert sum(s.duration for s in path.segments) == pytest.approx(path.total)
        labels = {s.label for s in path.segments}
        assert "precopy" in labels and "freeze" in labels

    def test_degradation_includes_postcopy_fault_wait(self, two_nodes):
        tracer, report, stats = mode_migration(
            two_nodes, "postcopy", HotSet(pages=8, interval=0.002, offset=2000)
        )
        assert report.success and stats["faulted"] >= 1
        (sl,) = migration_slices(tracer.events)
        degr = degradation_breakdown(sl)
        assert degr["downtime"] > 0
        assert degr["postcopy.fault_wait"] == pytest.approx(
            report.postcopy_fault_wait
        )


class TestRenderAndCli:
    def test_render_empty(self):
        assert render_critical_path([]) == "(no migrations in trace)"

    def test_render_mentions_every_block(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "incremental-collective")
        text = render_critical_path(tracer.events)
        assert "downtime critical path" in text
        assert "total-time attribution" in text
        assert "degradation contributors" in text

    def test_cli_critical_path_flag(self, two_nodes, tmp_path, capsys):
        from repro.obs import write_jsonl
        from repro.obs.cli import main as trace_main

        tracer, _ = traced_migration(two_nodes, "incremental-collective")
        path = write_jsonl(tmp_path / "t.jsonl", tracer)
        assert trace_main([str(path), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "downtime critical path" in out
        assert "network.transfer" in out
