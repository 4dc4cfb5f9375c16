"""The planner's quiet rounds: a closed ``Strategy.may_act`` gate, or
parked actions none of which is due, settle a round before any model is
built.  A gate may say no only where ``plan()`` would be empty.

Two oracles: each registered strategy's own ``plan()`` on a fully built
model (a property over loads, peers, shares and history), and whole
campaign worlds run again under a test-only planner that finds no round
quiet.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.middleware import (
    STRATEGIES,
    ClusterModel,
    ConductorConfig,
    LoadInfo,
    PolicyConfig,
    make_strategy,
)
from repro.middleware import conductor as conductor_module
from repro.middleware.policies import RandomLocationPolicy
from repro.middleware.strategy import Planner
from repro.net import IPAddr
from repro.scenarios.campaign import build_world, drive_world, get_campaign, measure_campaign

from .test_strategy import FakeProc

BUILTIN = sorted(STRATEGIES)
NOW = 500.0

loads = st.floats(0.0, 100.0, allow_nan=False)
#: Whole numbers land exactly on the thresholds and bands.
whole = st.integers(0, 100).map(float)
#: The default balance band and imbalance threshold.
BOUNDARIES = (4.0, 12.0)
#: Local excess over the average: anywhere, on a gate's boundary, or
#: just either side of it.
excesses = st.one_of(
    st.floats(-30.0, 30.0),
    st.sampled_from(BOUNDARIES),
    st.sampled_from(BOUNDARIES).flatmap(lambda b: st.floats(b - 1.5, b + 1.5)),
)


@st.composite
def rounds(draw):
    """(local, average, peers, shares, history, sequential, asleep)."""
    local = draw(st.one_of(loads, whole))
    average = local - draw(excesses)
    peers = [
        LoadInfo(
            node_name=f"node{i + 2}",
            local_ip=IPAddr(f"192.168.0.{i + 2}"),
            cpu_percent=cpu,
            nprocs=nprocs,
            timestamp=NOW - age,
            asleep=asleep,
        )
        for i, (cpu, nprocs, age, asleep) in enumerate(
            draw(
                st.lists(
                    st.tuples(loads, st.integers(0, 6), st.floats(0.0, 3.0), st.booleans()),
                    max_size=5,
                )
            )
        )
    ]
    shares = [
        (FakeProc(pid), share)
        for pid, share in enumerate(draw(st.lists(st.floats(0.0, 30.0), max_size=6)), 100)
    ]
    # A sampled local series, sometimes periodic enough for cycle-aware
    # to detect a cycle and forecast a trough.
    n = draw(st.integers(0, 64))
    period = draw(st.integers(4, 16))
    amplitude = draw(st.floats(0.0, 40.0))
    history = {
        "node1": tuple(
            (NOW - n + k, local + amplitude * np.sin(2 * np.pi * k / period))
            for k in range(1, n + 1)
        )
    }
    for info in peers:
        history[info.node_name] = ((info.timestamp, info.cpu_percent),)
    return local, average, peers, shares, history, draw(st.booleans()), draw(st.booleans())


def model_of_round(local, average, peers, shares, history, sequential, asleep):
    """The model the planner would build for a drawn round."""
    return ClusterModel(
        now=NOW,
        local=LoadInfo("node1", IPAddr("192.168.0.1"), local, len(shares), NOW, asleep),
        peers=[i for i in peers if not i.asleep],
        average=average,
        shares=list(shares),
        max_actions=1 if sequential else 3,
        sequential=sequential,
        config=PolicyConfig(),
        history=history,
        asleep_peers=[i for i in peers if i.asleep],
    )


def make(name):
    """The registered strategy with a seeded rng that its plans draw
    from (a random location policy, which the threshold rule honours)."""
    rng = np.random.default_rng(7)
    policies = PolicyConfig()
    config = ConductorConfig(
        policies=policies,
        strategy=name,
        location_policy=RandomLocationPolicy(policies, rng),
    )
    return make_strategy(name, config, rng), rng


@pytest.mark.parametrize("name", BUILTIN)
@settings(max_examples=400, deadline=None)
@given(case=rounds())
def test_a_closed_gate_means_an_empty_plan(name, case):
    strategy, rng = make(name)
    local, average, *_ = case
    if strategy.may_act(local, average):
        return
    rng_state = rng.bit_generator.state
    state = dict(vars(strategy))
    plan = strategy.plan(model_of_round(*case))
    assert plan.actions == []
    assert plan.power is None
    assert rng.bit_generator.state == rng_state
    assert vars(strategy) == state


@pytest.mark.parametrize("name", BUILTIN)
def test_the_gate_opens_where_plans_act(name):
    # Every gate but consolidate's closes on a balanced node, and every
    # gate opens on a node far above the average.
    strategy, _ = make(name)
    assert strategy.may_act(95.0, 40.0)
    assert strategy.may_act(40.0, 40.0) is (name == "consolidate")


# ---------------------------------------------------------------------------
# Whole worlds against a planner that finds no round quiet
# ---------------------------------------------------------------------------
class UngatedPlanner(Planner):
    """A planner that finds no round quiet: every round builds a model
    and consults ``plan()`` whatever the strategy's gate says or, with
    actions parked, runs the due ones even when none is due."""

    def quiet(self, local, average):
        return False


def run_world(campaign):
    world = build_world(
        campaign.scenario,
        seed=campaign.seed,
        balancers=campaign.conductor_config(campaign.seed),
    )
    driver = drive_world(world, campaign)
    values = measure_campaign(world, driver, campaign, campaign.quick_duration)
    planners = [c.planner for c in world.conductors]
    outcome = {
        "values": values,
        "migrations": world.migration_events(),
        "stale_skipped": [p.stale_skipped_total for p in planners],
        "history": [{k: list(v) for k, v in p._history.items()} for p in planners],
        "counters": [
            (p.plans_total, p.actions_total, p.executed_total, p.deferred_total, p.dropped_total)
            for p in planners
        ],
        "events": world.cluster.env._eid,
    }
    world.cluster.close()
    return outcome


@pytest.mark.parametrize(
    "name, strategy",
    [
        ("flash-crowd-node-crash", None),
        ("diurnal-cycle-aware", None),
        ("diurnal-workload-balance", None),
        ("correlated-crashes", "consolidate"),
    ],
)
def test_gated_world_equals_an_ungated_one(monkeypatch, name, strategy):
    campaign = get_campaign(name)
    if strategy is not None:
        campaign = campaign.with_overrides(strategy=strategy)
    gated = run_world(campaign)
    monkeypatch.setattr(conductor_module, "Planner", UngatedPlanner)
    ungated = run_world(campaign)
    assert gated == ungated
    assert gated["migrations"]
    if name == "diurnal-cycle-aware":
        # Parked actions: their rounds are quiet until one comes due.
        assert any(deferred for _, _, _, deferred, _ in gated["counters"])
    assert all(len(h) > 1 for h in gated["history"])


def test_stale_peers_are_counted_in_quiet_rounds():
    # A crashed node's last heartbeat ages past the staleness window
    # before it is pruned; the survivors' quiet rounds count it.
    outcome = run_world(get_campaign("flash-crowd-node-crash"))
    assert sum(outcome["stale_skipped"]) > 0
