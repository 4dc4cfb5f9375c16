"""The fault taxonomy, plan ordering, and the one-liner DSL."""

import pytest

from repro.faults import (
    FaultPlan,
    LinkLoss,
    LinkPartition,
    MIGD_PHASES,
    MigdAbort,
    NodeCrash,
    NodeStall,
    PacketCorrupt,
    parse_fault,
    parse_plan,
)


class TestPlan:
    def test_iteration_sorted_by_time(self):
        plan = FaultPlan([NodeCrash(5.0, "node2"), NodeStall(1.0, "node1")])
        plan.add(LinkLoss(0.5, "node3", rate=0.2))
        assert [f.at for f in plan] == [0.5, 1.0, 5.0]
        assert len(plan) == 3

    def test_rejects_negative_time_and_non_faults(self):
        with pytest.raises(ValueError):
            FaultPlan([NodeCrash(-1.0, "node1")])
        with pytest.raises(TypeError):
            FaultPlan().add("crash")  # type: ignore[arg-type]

    def test_migd_abort_validates_phase(self):
        for phase in MIGD_PHASES:
            MigdAbort(0.0, "*", phase=phase)
        with pytest.raises(ValueError):
            MigdAbort(0.0, "*", phase="done")

    def test_migd_abort_session_matching(self):
        fault = MigdAbort(0.0, "*")
        assert fault.matches_session("node1>node2#1000", 1000)
        by_id = MigdAbort(0.0, "node1>node2#1000")
        assert by_id.matches_session("node1>node2#1000", 1000)
        assert not by_id.matches_session("node1>node3#1000", 1000)
        by_pid = MigdAbort(0.0, "1000")
        assert by_pid.matches_session("anything>else#1000", 1000)
        assert not by_pid.matches_session("anything>else#1001", 1001)

    def test_windowed_activity(self):
        loss = LinkLoss(1.0, "node2", rate=0.5, duration=2.0)
        assert not loss.active(0.5)
        assert loss.active(1.0)
        assert loss.active(2.999)
        assert not loss.active(3.0)
        # Default window is open-ended.
        assert PacketCorrupt(1.0, "node2").active(1e9)


class TestDsl:
    def test_round_trip(self):
        plan = FaultPlan(
            [
                NodeCrash(5.0, "node2"),
                NodeStall(2.0, "node1", duration=1.5),
                LinkLoss(0.5, "node3", rate=0.2, duration=3.0),
                LinkPartition(1.0, "node2", duration=2.0),
                PacketCorrupt(0.0, "dbserver", rate=0.05),
                MigdAbort(0.0, "*", phase="freeze"),
            ]
        )
        text = plan.describe()
        rebuilt = parse_plan(text)
        assert rebuilt.describe() == text
        assert len(rebuilt) == len(plan)

    def test_parse_fault_kinds(self):
        assert isinstance(parse_fault("t=5.0 crash node node2"), NodeCrash)
        stall = parse_fault("t=2 stall node node3 duration=1.5")
        assert isinstance(stall, NodeStall) and stall.duration == 1.5
        loss = parse_fault("t=0.5 loss link node2 rate=0.2 duration=3")
        assert isinstance(loss, LinkLoss)
        assert loss.rate == 0.2 and loss.duration == 3.0
        abort = parse_fault("t=0 abort migd * phase=freeze")
        assert isinstance(abort, MigdAbort) and abort.phase == "freeze"

    def test_parse_plan_skips_comments_and_blanks(self):
        plan = parse_plan(
            """
            # chaos scenario
            t=1 crash node node2   # the victim

            t=2 partition link node3 duration=0.5
            """
        )
        assert len(plan) == 2

    @pytest.mark.parametrize(
        "line",
        [
            "crash node node2",  # missing t=
            "t=x crash node node2",  # bad time
            "t=1 melt node node2",  # unknown kind
            "t=1 crash link node2",  # wrong scope
            "t=1 crash node",  # missing target
            "t=1 stall node node2 rate=0.5",  # option not allowed
            "t=1 loss link node2 rate=abc",  # bad value
            "t=1 abort migd * phase=nope",  # invalid phase
        ],
    )
    def test_parse_errors(self, line):
        with pytest.raises(ValueError):
            parse_fault(line)
