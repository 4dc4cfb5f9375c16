"""The contract example in docs/strategies.md runs against the model the
planner builds, so the guide cannot drift from the model's fields."""

from pathlib import Path

from repro.cluster import build_cluster
from repro.middleware import STRATEGIES, ConductorConfig
from repro.middleware import strategy as strategy_module
from repro.testing import run_for

GUIDE = Path(__file__).resolve().parents[2] / "docs" / "strategies.md"


def contract_example() -> str:
    """The first Python block under the guide's "The contract"."""
    section = GUIDE.read_text().split("## The contract", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_contract_example_plans_from_a_planner_built_model(monkeypatch):
    # A copy of the registry: other modules read it at import.
    monkeypatch.setattr(strategy_module, "STRATEGIES", dict(STRATEGIES))
    namespace = {}
    exec(compile(contract_example(), str(GUIDE), "exec"), namespace)
    assert "drain-oldest" not in STRATEGIES

    cluster = build_cluster(n_nodes=3, with_db=False)
    config = ConductorConfig(
        check_interval=1.0,
        strategy="drain-oldest",
        strategy_params={"max_age": 300.0},
    )
    conductors = cluster.install_balancers(config)
    cond = conductors[0]
    assert isinstance(cond.planner.strategy, namespace["DrainOldestStrategy"])
    assert cond.planner.strategy.max_age == 300.0
    node1 = cluster.nodes[0]
    for i in range(2):
        proc = node1.kernel.spawn_process(f"zs{i}")
        proc.address_space.mmap(16)
        node1.kernel.cpu.set_demand(proc, 0.4)
        cond.manage(proc)
    run_for(cluster, 0.5)

    local = cond.monitor.current_load()
    model = cond.planner.build_model(local, cond.peers.cluster_average(local))
    plan = cond.planner.strategy.plan(model)
    assert [a.proc for a in plan.actions] == [p for p, _ in model.shares]
    assert len(plan.actions) == 2
    for action in plan.actions:
        assert action.source == "node1"
        assert [c.node_name for c in action.candidates] == ["node2", "node3"]

    run_for(cluster, 5.0)
    assert cond.planner.executed_total >= 1
    cluster.close()
