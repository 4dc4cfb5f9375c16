"""Failure detection, retry policy, end-to-end recovery, determinism."""

import pytest

from repro.cluster import build_cluster
from repro.core import (
    LiveMigrationConfig,
    RetryPolicy,
    install_migd,
    migrate_with_retry,
)
from repro.faults import FaultPlan, LinkLoss, NodeCrash, install_faults
from repro.middleware import ALIVE, DEAD, SUSPECT, FailureDetector
from repro.obs import trace_to_jsonl
from repro.testing import run_for

from ..core.conftest import start_client_pinger, start_echo
from .conftest import make_traffic


class TestFailureDetector:
    def make(self, cluster, suspect=1.0, dead=2.0):
        return FailureDetector(
            cluster.env, suspect_timeout=suspect, dead_timeout=dead, node="node1"
        )

    def test_silence_escalates_alive_suspect_dead(self, two_nodes):
        d = self.make(two_nodes)
        d.heard_from("192.168.0.2", "node2")
        assert d.state("192.168.0.2") == ALIVE
        run_for(two_nodes, 1.5)
        d.check()
        assert d.state("192.168.0.2") == SUSPECT
        assert d.usable("192.168.0.2") is False
        run_for(two_nodes, 1.0)
        d.check()
        assert d.state("192.168.0.2") == DEAD
        assert d.deaths_total == 1

    def test_heartbeat_snaps_back_to_alive(self, two_nodes):
        d = self.make(two_nodes)
        d.heard_from("192.168.0.2", "node2")
        run_for(two_nodes, 3.0)
        d.check()
        assert d.state("192.168.0.2") == DEAD
        d.heard_from("192.168.0.2", "node2")
        assert d.state("192.168.0.2") == ALIVE
        assert d.usable("192.168.0.2")
        assert d.recoveries_total == 1

    def test_unknown_peer_counts_alive(self, two_nodes):
        d = self.make(two_nodes)
        assert d.state("192.168.0.99") == ALIVE
        assert d.usable("192.168.0.99")

    def test_forget_drops_peer(self, two_nodes):
        d = self.make(two_nodes)
        d.heard_from("192.168.0.2", "node2")
        assert len(d) == 1
        d.forget("192.168.0.2")
        assert len(d) == 0

    def test_rejects_bad_timeouts(self, two_nodes):
        with pytest.raises(ValueError):
            FailureDetector(two_nodes.env, suspect_timeout=5.0, dead_timeout=2.0)


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        p = RetryPolicy(backoff_base=0.5, backoff_factor=2.0, backoff_max=3.0)
        assert p.backoff(0) == 0.5
        assert p.backoff(1) == 1.0
        assert p.backoff(2) == 2.0
        assert p.backoff(3) == 3.0  # capped
        assert p.backoff(10) == 3.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestRetryEndToEnd:
    def test_dest_crash_retries_to_next_candidate(self, three_nodes):
        """The flagship scenario: the first destination crashes
        mid-precopy; the engine rolls back and the retry loop lands the
        process on the second candidate."""
        cluster = three_nodes
        tracer = cluster.env.enable_tracing()
        node, proc, children, clients = make_traffic(cluster)
        for ch in children:
            start_echo(cluster, proc, ch)
        stats = [start_client_pinger(cluster, c) for c in clients]
        run_for(cluster, 0.5)

        d1, d2 = cluster.nodes[1], cluster.nodes[2]
        install_migd(d1)
        install_migd(d2)
        # Crash d1 shortly after the migration starts (precopy of a
        # 64-page image takes well over 10 ms of simulated time).
        install_faults(
            cluster, FaultPlan([NodeCrash(cluster.env.now + 0.01, "node2")])
        )
        mig = cluster.env.process(
            migrate_with_retry(
                node,
                [d1, d2],
                proc,
                LiveMigrationConfig(rpc_timeout=1.0),
                policy=RetryPolicy(backoff_base=0.2),
            )
        )
        report = cluster.env.run(until=mig)
        assert report.success
        assert report.destination == d2.name
        assert proc.kernel is d2.kernel
        names = [e.name for e in tracer.events]
        assert "fault.node.crash" in names
        assert "recover.backoff" in names
        assert "recover.retry" in names
        # Traffic resumes against the new node.
        before = [s["received"] for s in stats]
        run_for(cluster, 3.0)
        assert all(s["received"] > b for s, b in zip(stats, before))

    def test_skip_vetoes_candidates(self, three_nodes):
        cluster = three_nodes
        node, proc, children, clients = make_traffic(cluster)
        run_for(cluster, 0.1)
        d1, d2 = cluster.nodes[1], cluster.nodes[2]
        install_migd(d1)
        install_migd(d2)
        mig = cluster.env.process(
            migrate_with_retry(
                node,
                [d1, d2],
                proc,
                LiveMigrationConfig(rpc_timeout=1.0),
                skip=lambda h: h is d1,
            )
        )
        report = cluster.env.run(until=mig)
        assert report.success
        assert report.destination == d2.name

    def test_all_vetoed_returns_none(self, three_nodes):
        cluster = three_nodes
        node, proc, children, clients = make_traffic(cluster)
        d1, d2 = cluster.nodes[1], cluster.nodes[2]
        mig = cluster.env.process(
            migrate_with_retry(node, [d1, d2], proc, skip=lambda h: True)
        )
        report = cluster.env.run(until=mig)
        assert report is None
        assert proc.kernel is node.kernel


class TestDeterminism:
    def test_same_seed_same_plan_identical_traces(self):
        """Acceptance criterion: identical FaultPlan seeds produce
        byte-identical trace event sequences across two runs."""

        def run_once():
            cluster = build_cluster(n_nodes=3, with_db=False, master_seed=7)
            tracer = cluster.env.enable_tracing()
            node, proc, children, clients = make_traffic(cluster)
            for ch in children:
                start_echo(cluster, proc, ch)
            for c in clients:
                start_client_pinger(cluster, c)
            run_for(cluster, 0.5)
            d1, d2 = cluster.nodes[1], cluster.nodes[2]
            install_migd(d1)
            install_migd(d2)
            install_faults(
                cluster,
                FaultPlan(
                    [
                        LinkLoss(0.0, "node2", rate=0.05),
                        NodeCrash(cluster.env.now + 0.01, "node2"),
                    ]
                ),
            )
            mig = cluster.env.process(
                migrate_with_retry(
                    node,
                    [d1, d2],
                    proc,
                    LiveMigrationConfig(rpc_timeout=1.0),
                    policy=RetryPolicy(backoff_base=0.2),
                )
            )
            report = cluster.env.run(until=mig)
            assert report.success
            run_for(cluster, 1.0)
            return trace_to_jsonl(tracer)

        assert run_once() == run_once()
