"""Migration modes: post-copy, hybrid, delta compression and
auto-convergence — plus the precopy correctness regressions (zero-round
configs, abort-event freeze labeling, crash containment)."""

import pytest

from repro.core import (
    LiveMigrationConfig,
    LiveMigrationEngine,
    SessionState,
    migrate_process,
)
from repro.faults import install_faults, parse_plan
from repro.oskern import PAGE_SIZE, RpcError
from repro.scenarios.workload import HotSet, start_dirtier
from repro.testing import run_for

from .conftest import make_server_proc


def make_proc_with_area(cluster, node_index=0, npages=256, name="zone_serv0"):
    node = cluster.nodes[node_index]
    proc = node.kernel.spawn_process(name)
    area = proc.address_space.mmap(npages, tag="heap")
    return node, proc, area


class TestConfigValidation:
    def test_unknown_mode_rejected(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        with pytest.raises(ValueError, match="mode"):
            LiveMigrationEngine(
                node, two_nodes.nodes[1], proc, LiveMigrationConfig(mode="lazy")
            )

    def test_unknown_compression_rejected(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        with pytest.raises(ValueError, match="compression"):
            LiveMigrationEngine(
                node,
                two_nodes.nodes[1],
                proc,
                LiveMigrationConfig(compression="lz4"),
            )


class TestPostcopy:
    def test_postcopy_moves_execution_first(self, two_nodes):
        """Pure post-copy: zero precopy rounds, no pages in the freeze
        image, residual set arrives after the thaw."""
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=256)
        dest = cluster.nodes[1]
        mig = migrate_process(node, dest, proc, LiveMigrationConfig(mode="postcopy"))
        report = cluster.env.run(until=mig)
        assert report.success
        assert report.mode == "postcopy"
        assert report.precopy_rounds == 0
        assert report.bytes.precopy_pages == 0
        # The freeze image ships the page *map*, not the contents.
        assert report.bytes.freeze_pages == 0
        assert report.bytes.postcopy_pages >= 256 * PAGE_SIZE
        assert report.postcopy_pushed_pages + report.postcopy_fetched_pages >= 256
        assert proc.kernel is dest.kernel
        assert not proc.address_space.has_absent
        assert proc.page_fault_handler is None

    def test_postcopied_process_migrates_back_by_postcopy(self, two_nodes):
        """A process that arrived by post-copy holds clean pages; a second
        post-copy move still leaves every one of them behind to fetch."""
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=64)
        dest = cluster.nodes[1]
        proc.address_space.write_range(area, count=8)
        expected = proc.address_space.content_snapshot()
        config = LiveMigrationConfig(mode="postcopy")
        there = cluster.env.run(until=migrate_process(node, dest, proc, config))
        back = cluster.env.run(until=migrate_process(dest, node, proc, config))
        assert there.success and back.success
        assert proc.kernel is node.kernel
        assert back.postcopy_pushed_pages + back.postcopy_fetched_pages == 64
        assert proc.address_space.content_snapshot() == expected

    def test_postcopy_demand_fetch_services_workload_faults(self, two_nodes):
        """A write-hot workload resumes on the destination immediately
        and its writes to non-resident pages are demand-fetched."""
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=2048)
        # Touch the *end* of the area so the address-ordered push queue
        # reaches those pages last — the workload must fault.
        stats = start_dirtier(
            cluster.env, proc, area, HotSet(pages=8, interval=0.002, offset=2000)
        )
        run_for(cluster, 0.1)
        dest = cluster.nodes[1]
        mig = migrate_process(node, dest, proc, LiveMigrationConfig(mode="postcopy"))
        report = cluster.env.run(until=mig)
        run_for(cluster, 0.5)
        assert report.success
        assert report.postcopy_faults >= 1
        assert report.postcopy_fetched_pages >= 1
        assert report.postcopy_fault_wait > 0.0
        assert report.degradation_seconds >= report.freeze_time
        assert stats["errors"] == 0
        assert stats["faulted"] >= 1
        # The workload kept running on the destination after the move.
        before = stats["ticks"]
        run_for(cluster, 0.5)
        assert stats["ticks"] > before

    def test_postcopy_fault_during_fetch_dsl(self, two_nodes):
        """A ``phase=postcopy`` MigdAbort (faults DSL) fails the source
        store: blocked fetches raise into the workload and the engine
        aborts without rolling back."""
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=2048)
        observed = []

        def writer():
            while True:
                yield cluster.env.timeout(0.0005)
                try:
                    yield from proc.touch_range(area, 4, offset=2000)
                except (RpcError, ValueError) as exc:
                    observed.append(exc)
                    return

        cluster.env.process(writer())
        run_for(cluster, 0.05)
        install_faults(cluster, parse_plan("t=0 abort migd * phase=postcopy"))
        dest = cluster.nodes[1]
        mig = migrate_process(
            node, dest, proc, LiveMigrationConfig(mode="postcopy", rpc_timeout=1.0)
        )
        report = cluster.env.run(until=mig)
        run_for(cluster, 2.0)
        assert not report.success
        assert "postcopy" in report.error
        # No rollback: execution stays on the destination.
        assert proc.kernel is dest.kernel
        # The workload observed the failed fetch path (an RpcError from
        # a blocked fetch, or the raw page fault once pagefaultd is
        # torn down) instead of hanging forever.
        assert observed


class TestHybrid:
    def test_hybrid_runs_warmup_then_switches(self, two_nodes):
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=1024)
        stats = start_dirtier(cluster.env, proc, area, HotSet(pages=32, interval=0.005))
        run_for(cluster, 0.1)
        dest = cluster.nodes[1]
        mig = migrate_process(
            node, dest, proc, LiveMigrationConfig(mode="hybrid", hybrid_warmup_rounds=1)
        )
        report = cluster.env.run(until=mig)
        assert report.success
        assert report.mode == "hybrid"
        # Exactly the warm-up round ran before the switch point.
        assert report.precopy_rounds == 1
        assert report.bytes.precopy_pages >= 1024 * PAGE_SIZE
        # Only the since-warm-up dirty set stayed behind for post-copy.
        assert 0 < report.bytes.postcopy_pages < report.bytes.precopy_pages
        assert proc.kernel is dest.kernel
        assert not proc.address_space.has_absent
        assert stats["errors"] == 0

    def test_hybrid_switch_point_honours_warmup_rounds(self, two_nodes):
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=256)
        dest = cluster.nodes[1]
        mig = migrate_process(
            node,
            dest,
            proc,
            LiveMigrationConfig(mode="hybrid", hybrid_warmup_rounds=3),
        )
        report = cluster.env.run(until=mig)
        assert report.success
        assert report.precopy_rounds == 3


class TestCompression:
    def test_zero_page_saves_on_cold_memory(self, two_nodes):
        """Never-written pages compress to markers: >= 30% saved."""
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=512)
        dest = cluster.nodes[1]
        mig = migrate_process(
            node, dest, proc, LiveMigrationConfig(compression="zero-page")
        )
        report = cluster.env.run(until=mig)
        assert report.success
        assert report.compression == "zero-page"
        raw = report.bytes.total + report.compression_saved_bytes
        assert report.compression_saved_bytes >= 0.3 * raw
        assert proc.kernel is dest.kernel

    def test_xbzrle_deltas_on_hot_pages(self, two_nodes):
        """Re-dirtied pages go as deltas against the previous round's
        version map instead of full copies."""
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=512)
        stats = start_dirtier(cluster.env, proc, area, HotSet(pages=64, interval=0.005))
        run_for(cluster, 0.2)
        dest = cluster.nodes[1]
        engine = LiveMigrationEngine(
            node, dest, proc, LiveMigrationConfig(compression="xbzrle")
        )
        report = cluster.env.run(until=engine.start())
        assert report.success
        assert report.compression_saved_bytes > 0
        assert engine.channel.compressor.stats.delta_pages > 0
        # Accounting invariant: raw == wire + saved across the session.
        cst = engine.channel.compressor.stats
        assert cst.raw_bytes == cst.wire_bytes + cst.saved_bytes
        assert stats["errors"] == 0

    def test_compressed_bytes_reported_on_wire(self, two_nodes):
        """report.bytes carries the *wire* (compressed) sizes."""
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=512)
        dest = cluster.nodes[1]
        engine = LiveMigrationEngine(
            node, dest, proc, LiveMigrationConfig(compression="zero-page")
        )
        report = cluster.env.run(until=engine.start())
        cst = engine.channel.compressor.stats
        page_wire = report.bytes.precopy_pages + report.bytes.freeze_pages
        assert page_wire == cst.wire_bytes
        assert report.compression_saved_bytes == cst.saved_bytes


class TestAutoConvergence:
    def hot_migration(self, cluster, auto_converge):
        node, proc, area = make_proc_with_area(cluster, npages=4096)
        # The workload re-dirties the whole working set faster than any
        # round can ship it: the residual set never shrinks, so the
        # precopy loop cannot converge without throttling.
        stats = start_dirtier(cluster.env, proc, area, HotSet(pages=4096, interval=0.02))
        run_for(cluster, 0.1)
        cfg = LiveMigrationConfig(
            timeout_decay=1.0,  # rounds never shrink: max_rounds bounds the loop
            max_rounds=6,
            auto_converge=auto_converge,
        )
        mig = migrate_process(node, cluster.nodes[1], proc, cfg)
        report = cluster.env.run(until=mig)
        return proc, stats, report

    def test_throttle_engages_when_dirty_rate_outruns_bandwidth(self, two_nodes):
        proc, stats, report = self.hot_migration(two_nodes, auto_converge=True)
        assert report.success
        assert report.precopy_rounds == 6
        assert report.throttle_steps >= 1
        assert report.throttled_seconds > 0.0
        assert report.degradation_seconds > report.freeze_time
        # The throttle was released before the freeze.
        assert proc.cpu_throttle == 1.0
        assert stats["errors"] == 0

    def test_no_throttle_without_opt_in(self, two_nodes):
        proc, stats, report = self.hot_migration(two_nodes, auto_converge=False)
        assert report.success
        assert report.throttle_steps == 0
        assert report.throttled_seconds == 0.0

    def test_timeout_decay_of_one_is_bounded_by_max_rounds(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        cfg = LiveMigrationConfig(timeout_decay=1.0, max_rounds=4)
        report = two_nodes.env.run(
            until=migrate_process(node, two_nodes.nodes[1], proc, cfg)
        )
        assert report.success
        assert report.precopy_rounds == 4


class TestZeroRoundRegression:
    """A config that runs zero precopy rounds used to freeze-dump
    ``dirty_only=True`` and leave the destination with holes."""

    @pytest.mark.parametrize(
        "cfg",
        [
            LiveMigrationConfig(initial_round_timeout=0.01, freeze_threshold=0.02),
            LiveMigrationConfig(max_rounds=0),
        ],
        ids=["timeout-below-threshold", "max-rounds-zero"],
    )
    def test_zero_round_config_still_ships_full_image(self, two_nodes, cfg):
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=128)
        # Partially-written memory: dirty bits alone no longer cover the
        # whole space once some pages were dumped... but with zero
        # rounds nothing is dumped, so the freeze must ship everything.
        proc.address_space.write_range(area, count=16)
        dest = cluster.nodes[1]
        report = cluster.env.run(until=migrate_process(node, dest, proc, cfg))
        assert report.success
        assert report.precopy_rounds == 0
        assert report.bytes.precopy_pages == 0
        assert report.bytes.freeze_pages >= 128 * PAGE_SIZE
        assert proc.kernel is dest.kernel
        assert len(proc.address_space.content_snapshot()) == 128

    def test_second_migration_after_zero_round_config(self, two_nodes):
        """Re-migration of the restored process is complete too."""
        cluster = two_nodes
        node, proc, area = make_proc_with_area(cluster, npages=64)
        a, b = cluster.nodes
        r1 = cluster.env.run(
            until=migrate_process(a, b, proc, LiveMigrationConfig(max_rounds=0))
        )
        assert r1.success
        r2 = cluster.env.run(
            until=migrate_process(b, a, proc, LiveMigrationConfig(max_rounds=0))
        )
        assert r2.success
        assert proc.kernel is a.kernel
        assert len(proc.address_space.content_snapshot()) == 64


class TestCrashContainment:
    """An unexpected engine exception must terminate the session and
    report failure, not leak a half-migrated process."""

    def test_engine_crash_rolls_back_and_returns_report(
        self, two_nodes, monkeypatch
    ):
        cluster = two_nodes
        tracer = cluster.env.enable_tracing()
        node, proc, area = make_proc_with_area(cluster, npages=64)
        dest = cluster.nodes[1]
        engine = LiveMigrationEngine(node, dest, proc)

        def boom(*a, **kw):
            raise RuntimeError("synthetic engine bug")

        monkeypatch.setattr("repro.core.precopy.dump_file_table", boom)
        report = cluster.env.run(until=engine.start())
        assert report is engine.report
        assert not report.success
        assert report.error.startswith("crashed: RuntimeError")
        # Terminal session, no admission leak, process alive on source.
        assert engine.session.state is SessionState.ABORTED
        assert proc.kernel is node.kernel
        assert proc.pid in node.kernel.processes
        assert not proc.is_frozen
        events = [e for e in tracer.events if e.name == "mig.abort"]
        assert events and events[0].fields["crashed"] is True
        # The crash happened post-freeze: the flag must say so even
        # though ``frozen_at`` can be any sim time (including 0.0).
        assert events[0].fields["frozen"] is True
