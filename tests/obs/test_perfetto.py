"""The Chrome trace-event (Perfetto) exporter.

``validate_chrome_trace`` here is the schema gate the acceptance
criterion asks for: every document the exporter produces must satisfy
what chrome://tracing actually requires of the JSON — the top-level
shape, per-phase mandatory keys, balanced B/E nesting per track, and
paired flow ids.
"""

import json

from repro.obs import migration_slices, to_chrome_trace, write_chrome_trace
from repro.obs.perfetto import event_node
from repro.scenarios.workload import HotSet

from .test_causal import mode_migration
from .test_trace_migration import traced_migration

_REQUIRED = {"ph", "pid", "tid", "name"}


def validate_chrome_trace(doc):
    """Assert the document is loadable by chrome://tracing."""
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] in ("ms", "ns")
    stacks = {}
    flows = {"s": [], "f": []}
    for entry in doc["traceEvents"]:
        assert _REQUIRED <= set(entry), entry
        ph = entry["ph"]
        assert ph in "MBEisf", entry
        assert isinstance(entry["pid"], int) and isinstance(entry["tid"], int)
        if ph != "M":
            assert isinstance(entry["ts"], (int, float)) and entry["ts"] >= 0
        if ph == "i":
            assert entry["s"] in ("t", "p", "g")
        if ph in "sf":
            flows[ph].append(entry["id"])
    # B/E balance per (pid, tid), processed in timestamp order.
    timed = sorted(
        (e for e in doc["traceEvents"] if e["ph"] in "BE"),
        key=lambda e: e["ts"],
    )
    for entry in timed:
        key = (entry["pid"], entry["tid"])
        depth = stacks.get(key, 0)
        depth += 1 if entry["ph"] == "B" else -1
        assert depth >= 0, f"E without B on track {key}"
        stacks[key] = depth
    assert all(d == 0 for d in stacks.values()), f"unbalanced spans: {stacks}"
    assert sorted(flows["s"]) == sorted(flows["f"])
    return doc


class TestExport:
    def test_default_trace_valid_and_has_flows(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "incremental-collective")
        doc = validate_chrome_trace(to_chrome_trace(tracer.events))
        phases = {e["ph"] for e in doc["traceEvents"]}
        # Metadata, instants, spans — and flows from the caused_by edges.
        assert {"M", "i", "B", "E", "s", "f"} <= phases

    def test_causal_trace_valid(self, two_nodes):
        """A hybrid migration's trace carries every protocol handoff,
        post-copy fault → serve included."""
        tracer, _, _ = mode_migration(
            two_nodes, "hybrid", HotSet(pages=64, interval=0.002, offset=1900)
        )
        doc = validate_chrome_trace(to_chrome_trace(tracer.events))
        assert {"s", "f"} <= {e["ph"] for e in doc["traceEvents"]}

    def test_one_process_row_per_node(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "collective")
        doc = to_chrome_trace(tracer.events)
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"node1", "node2"} <= names

    def test_cross_node_flow_spans_processes(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "incremental-collective")
        doc = to_chrome_trace(tracer.events)
        by_id = {}
        for e in doc["traceEvents"]:
            if e["ph"] in "sf":
                by_id.setdefault(e["id"], {})[e["ph"]] = e
        assert by_id
        for pair in by_id.values():
            assert pair["s"]["pid"] != pair["f"]["pid"]
            assert pair["f"]["ts"] >= pair["s"]["ts"]

    def test_timestamps_are_microseconds(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "iterative")
        (sl,) = migration_slices(tracer.events)
        doc = to_chrome_trace(tracer.events)
        starts = [
            e["ts"]
            for e in doc["traceEvents"]
            if e.get("name") == "mig.start" and e["ph"] == "i"
        ]
        assert starts == [sl.start.time * 1e6]

    def test_unfinished_span_closed_at_trace_end(self):
        from repro.des import Environment

        env = Environment()
        tr = env.enable_tracing()
        tr.begin("mig.freeze.barrier", pid=1, session="a>b#1")
        env.timeout(2.0).callbacks.append(
            lambda _e: tr.event("tick", pid=1, session="a>b#1")
        )
        env.run()
        doc = validate_chrome_trace(to_chrome_trace(tr.events))
        closer = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "E" and e["args"].get("unfinished")
        ]
        assert len(closer) == 1
        assert closer[0]["ts"] == 2.0 * 1e6

    def test_fault_instants_are_global_scope(self):
        from repro.des import Environment

        env = Environment()
        tr = env.enable_tracing()
        tr.event("fault.injected", kind="crash", node="node2")
        doc = to_chrome_trace(tr.events)
        (inst,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert inst["s"] == "g"

    def test_empty_trace(self):
        assert validate_chrome_trace(to_chrome_trace([]))["traceEvents"] == []

    def test_write_roundtrip(self, two_nodes, tmp_path):
        tracer, _ = traced_migration(two_nodes, "collective")
        out = write_chrome_trace(tmp_path / "sub" / "t.json", tracer.events)
        validate_chrome_trace(json.loads(out.read_text()))


class TestNodeAttribution:
    def test_destination_daemons_land_on_dest(self, two_nodes):
        tracer, _ = traced_migration(two_nodes, "incremental-collective")
        for ev in tracer.events:
            if ev.kind == "end":
                # End edges carry no fields; the exporter reuses the
                # begin edge's track for them.
                continue
            node = event_node(ev)
            if ev.name.startswith(("migd.", "pagefaultd.")):
                assert node == "node2", ev.name
            elif ev.name.startswith("mig."):
                assert node == "node1", ev.name

    def test_explicit_node_field_wins(self):
        from repro.obs import TraceEvent

        ev = TraceEvent(time=0.0, name="migd.stage", fields={"node": "nodeX"})
        assert event_node(ev) == "nodeX"

    def test_sessionless_records_on_control_track(self):
        from repro.obs import TraceEvent

        ev = TraceEvent(time=0.0, name="plan.emitted", fields={})
        assert event_node(ev) == "cluster"
