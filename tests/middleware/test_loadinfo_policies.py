"""Unit tests for load info, peer database and the four policies."""

from dataclasses import replace

import pytest

from repro.middleware import (
    LoadInfo,
    LocationPolicy,
    PeerDatabase,
    PolicyConfig,
    SelectionPolicy,
    TransferPolicy,
)
from repro.net import IPAddr


def info(name, load, ts=0.0, nprocs=20):
    octet = int(name.replace("node", ""))
    return LoadInfo(name, IPAddr(f"192.168.0.{octet}"), load, nprocs, ts)


class TestPeerDatabase:
    def test_update_and_get(self):
        db = PeerDatabase()
        db.update(info("node2", 50))
        assert db.get(IPAddr("192.168.0.2")).cpu_percent == 50
        assert IPAddr("192.168.0.2") in db
        assert len(db) == 1

    def test_newer_wins_older_ignored(self):
        db = PeerDatabase()
        db.update(info("node2", 50, ts=10))
        db.update(info("node2", 70, ts=5))  # stale reordering
        assert db.get(IPAddr("192.168.0.2")).cpu_percent == 50
        db.update(info("node2", 80, ts=11))
        assert db.get(IPAddr("192.168.0.2")).cpu_percent == 80

    def test_prune_stale(self):
        db = PeerDatabase(stale_timeout=5)
        db.update(info("node2", 50, ts=0))
        db.update(info("node3", 60, ts=8))
        gone = db.prune_stale(now=10)
        assert [g.node_name for g in gone] == ["node2"]
        assert len(db) == 1

    def test_cluster_average_includes_self(self):
        db = PeerDatabase()
        db.update(info("node2", 40))
        db.update(info("node3", 60))
        assert db.cluster_average(own_load=80) == pytest.approx(60)

    def test_cluster_average_skips_sleeping_peers(self):
        db = PeerDatabase()
        db.update(info("node2", 40))
        db.update(replace(info("node3", 0), asleep=True))
        assert db.cluster_average(own_load=80) == pytest.approx(60)

    def test_average_alone(self):
        assert PeerDatabase().cluster_average(70) == 70

    def test_remove(self):
        db = PeerDatabase()
        db.update(info("node2", 40))
        db.remove(IPAddr("192.168.0.2"))
        assert len(db) == 0

    def test_clear_forgets_every_peer(self):
        db = PeerDatabase()
        db.update(info("node2", 40))
        db.update(info("node3", 60))
        assert [i.node_name for i in db.peers()] == ["node2", "node3"]
        db.clear()
        assert len(db) == 0
        assert db.peers() == []
        db.update(info("node4", 10, ts=1))
        assert [i.node_name for i in db.peers()] == ["node4"]

    def test_peers_follow_membership_and_latest_heartbeats(self):
        # peers() keeps its name order across heartbeats and rebuilds it
        # on every membership change: join, leave, prune, clear.
        db = PeerDatabase(stale_timeout=5)
        db.update(info("node3", 30, ts=0))
        db.update(info("node2", 20, ts=0))
        assert [(i.node_name, i.cpu_percent) for i in db.peers()] == [
            ("node2", 20),
            ("node3", 30),
        ]
        db.update(info("node3", 35, ts=1))
        db.update(info("node4", 40, ts=1))
        assert [(i.node_name, i.cpu_percent) for i in db.peers()] == [
            ("node2", 20),
            ("node3", 35),
            ("node4", 40),
        ]
        db.remove(IPAddr("192.168.0.3"))
        assert [i.node_name for i in db.peers()] == ["node2", "node4"]
        db.prune_stale(now=5.5)
        assert [i.node_name for i in db.peers()] == ["node4"]
        db.update(info("node2", 25, ts=6))
        assert [(i.node_name, i.cpu_percent) for i in db.peers()] == [
            ("node2", 25),
            ("node4", 40),
        ]

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            PeerDatabase(stale_timeout=0)


class TestPruneReadmission:
    """Regression: a pruned node that re-announces must be re-admitted
    cleanly, while late replays of its pre-prune heartbeats stay dead."""

    def test_fresh_reannounce_readmits(self):
        db = PeerDatabase(stale_timeout=5)
        db.update(info("node2", 50, ts=0))
        db.prune_stale(now=10)
        assert len(db) == 0
        db.update(info("node2", 30, ts=12))  # node comes back
        assert IPAddr("192.168.0.2") in db
        assert db.get(IPAddr("192.168.0.2")).cpu_percent == 30

    def test_stale_replay_does_not_resurrect(self):
        db = PeerDatabase(stale_timeout=5)
        db.update(info("node2", 50, ts=3))
        db.prune_stale(now=10)
        # A delayed duplicate of the pre-prune heartbeat arrives late:
        # it must not bring the dead peer back.
        db.update(info("node2", 50, ts=3))
        assert len(db) == 0
        db.update(info("node2", 50, ts=1))  # even older replay
        assert len(db) == 0

    def test_readmission_clears_tombstone(self):
        db = PeerDatabase(stale_timeout=5)
        db.update(info("node2", 50, ts=0))
        db.prune_stale(now=10)
        db.update(info("node2", 30, ts=12))
        # After re-admission the peer behaves like any live peer again:
        # a second prune cycle works, and so does a second comeback.
        gone = db.prune_stale(now=20)
        assert [g.node_name for g in gone] == ["node2"]
        db.update(info("node2", 10, ts=25))
        assert len(db) == 1

    def test_remove_clears_tombstone(self):
        db = PeerDatabase(stale_timeout=5)
        db.update(info("node2", 50, ts=0))
        db.prune_stale(now=10)
        db.remove(IPAddr("192.168.0.2"))
        # An explicit remove forgets the history entirely: even an old
        # timestamp may register afresh (new incarnation, new clock).
        db.update(info("node2", 20, ts=2))
        assert len(db) == 1

    def test_stale_total_counts_monotonically(self):
        db = PeerDatabase(stale_timeout=5)
        assert db.stale_total == 0
        db.update(info("node2", 50, ts=0))
        db.update(info("node3", 60, ts=0))
        db.prune_stale(now=10)
        assert db.stale_total == 2
        db.update(info("node2", 30, ts=12))
        db.prune_stale(now=30)
        assert db.stale_total == 3


class TestTransferPolicy:
    def test_critical_threshold(self):
        p = TransferPolicy(PolicyConfig(critical_threshold=90))
        assert p.should_initiate(95, 94)  # above critical, even if avg high
        assert not p.should_initiate(80, 79)

    def test_imbalance_threshold(self):
        p = TransferPolicy(PolicyConfig(imbalance_threshold=12))
        assert p.should_initiate(75, 60)
        assert not p.should_initiate(70, 60)


class TestLocationPolicy:
    def test_opposite_side_of_average(self):
        """Best receiver is about as far below avg as sender is above."""
        p = LocationPolicy(PolicyConfig(receiver_margin=3))
        peers = [info("node2", 55), info("node3", 40), info("node4", 65)]
        # local 80, avg 60 -> overload 20 -> ideal receiver at 40.
        ranked = p.choose(80, 60, peers)
        assert ranked[0].node_name == "node3"

    def test_receivers_above_average_excluded(self):
        p = LocationPolicy(PolicyConfig(receiver_margin=3))
        peers = [info("node2", 70), info("node3", 59)]
        ranked = p.choose(80, 60, peers)
        assert [r.node_name for r in ranked] == []  # 59 within margin of 60

    def test_empty_peers(self):
        p = LocationPolicy(PolicyConfig())
        assert p.choose(90, 60, []) == []


class TestSelectionPolicy:
    def make_procs(self, shares):
        class FakeProc:
            def __init__(self, name):
                self.name = name

        return [(FakeProc(f"p{i}"), s) for i, s in enumerate(shares)]

    def test_picks_closest_to_diff(self):
        p = SelectionPolicy(PolicyConfig())
        shares = self.make_procs([2.0, 9.0, 22.0])
        chosen = p.choose(10.0, shares)
        assert chosen.name == "p1"  # 9% closest to the 10% difference

    def test_respects_overshoot_cap(self):
        p = SelectionPolicy(PolicyConfig(max_overshoot=1.8))
        shares = self.make_procs([30.0])
        assert p.choose(10.0, shares) is None  # 30 > 18

    def test_min_share_filters_idle_processes(self):
        p = SelectionPolicy(PolicyConfig(min_share=0.5))
        shares = self.make_procs([0.1, 0.2])
        assert p.choose(10.0, shares) is None

    def test_empty(self):
        assert SelectionPolicy(PolicyConfig()).choose(10.0, []) is None
