"""The decision-plane reports: ``repro-trace --plans`` and the
``repro-dash`` planner panel, fed by the planner's ``plan.*`` records."""

import pytest

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.middleware import ConductorConfig, PolicyConfig
from repro.obs.cli import main as trace_main
from repro.obs.dash import main as dash_main, render_planner_panel
from repro.obs.export import (
    plan_strategies,
    read_jsonl,
    render_plan_report,
    write_jsonl,
)
from repro.obs.tracer import TraceEvent
from repro.testing import run_for


@pytest.fixture
def planned_trace(tmp_path):
    """A traced run under the workload-balance strategy (plans on)."""
    cluster = build_cluster(n_nodes=3, with_db=False)
    tracer = cluster.env.enable_tracing()
    config = ConductorConfig(
        policies=PolicyConfig(imbalance_threshold=12),
        check_interval=1.0,
        calm_down=3.0,
        migration=LiveMigrationConfig(initial_round_timeout=0.08),
        strategy="workload-balance-to-average",
        strategy_params={"band": 5.0},
    )
    conductors = cluster.install_balancers(config)
    hot = cluster.nodes[0]
    for i in range(6):
        proc = hot.kernel.spawn_process(f"zs{i}")
        proc.address_space.mmap(16)
        hot.kernel.cpu.set_demand(proc, 0.3)
        conductors[0].manage(proc)
    run_for(cluster, 25.0)
    assert conductors[0].planner.executed_total >= 1
    path = tmp_path / "planned.jsonl"
    write_jsonl(path, tracer)
    return path


class TestRenderPlanReport:
    def test_tables_present(self, planned_trace):
        events = read_jsonl(planned_trace)
        report = render_plan_report(events)
        assert "Plans emitted" in report
        assert "Planned actions" in report
        assert "Per-strategy score distribution" in report
        assert "workload-balance-to-average" in report
        assert "executed" in report

    def test_strategy_filter(self, planned_trace):
        events = read_jsonl(planned_trace)
        assert plan_strategies(events) == ["workload-balance-to-average"]
        filtered = render_plan_report(
            events, strategy="workload-balance-to-average"
        )
        assert "Planned actions" in filtered
        empty = render_plan_report(events, strategy="cycle-aware")
        assert "no plan.*" in empty

    def test_no_plan_records(self):
        assert "no plan.*" in render_plan_report([])

    def test_an_action_reads_its_own_latest_fate(self):
        # Two deferred actions for one process, as cycle-aware plans
        # them: the first is dropped at its trough, the second executes.
        def ev(t, name, **fields):
            caused_by, ref = fields.pop("caused_by", None), fields.pop("ref", None)
            fields.update(node="node1", strategy="cycle-aware", pid=7)
            return TraceEvent(t, name, fields=fields, caused_by=caused_by, ref=ref)

        events = [
            ev(1.0, "plan.emitted", ref=1, actions=1),
            ev(1.0, "plan.action", caused_by=1, ref=2, proc="zs", score=14.0),
            ev(1.0, "plan.defer", caused_by=2, until=5.0),
            ev(5.0, "plan.drop", caused_by=2, reason="revalidated"),
            ev(6.0, "plan.emitted", ref=3, actions=1),
            ev(6.0, "plan.action", caused_by=3, ref=4, proc="zs", score=13.0),
            ev(6.0, "plan.defer", caused_by=4, until=9.0),
            ev(9.0, "plan.outcome", caused_by=4, dest="node2", outcome="executed"),
        ]
        report = render_plan_report(events)
        assert "dropped (revalidated)" in report
        assert "dropped=1 executed=1" in report
        assert "deferred" not in report


class TestTraceCli:
    def test_plans_flag(self, planned_trace, capsys):
        assert trace_main([str(planned_trace), "--plans"]) == 0
        out = capsys.readouterr().out
        assert "Plans emitted" in out
        assert "Per-strategy score distribution" in out

    def test_plans_strategy_filter(self, planned_trace, capsys):
        rc = trace_main(
            [str(planned_trace), "--plans", "workload-balance-to-average"]
        )
        assert rc == 0

    def test_unknown_strategy_exits_3(self, planned_trace, capsys):
        assert trace_main([str(planned_trace), "--plans", "nope"]) == 3
        err = capsys.readouterr().err
        assert "no such strategy" in err
        assert "workload-balance-to-average" in err


class TestDashPlannerPanel:
    def test_panel_rendered_from_trace(self, planned_trace):
        events = read_jsonl(planned_trace)
        panel = render_planner_panel(events)
        assert "Planner" in panel
        assert "node1" in panel
        assert "executed" in panel

    def test_panel_empty_without_plans(self):
        assert render_planner_panel([]) == ""

    def test_dash_cli_includes_panel(self, planned_trace, capsys):
        assert dash_main(["--trace", str(planned_trace)]) == 0
        out = capsys.readouterr().out
        assert "Planner" in out
        assert "workload-balance-to-average" in out
