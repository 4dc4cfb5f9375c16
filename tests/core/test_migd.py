"""Unit tests for the migration daemon and bulk channel."""

import pytest

from repro.cluster import build_cluster
from repro.core import (
    MIGD_PORT,
    LiveMigrationConfig,
    LiveMigrationEngine,
    MigrationChannel,
    install_migd,
)
from repro.net import IP_HEADER_BYTES, UDP_HEADER_BYTES
from repro.oskern import CostModel, RpcError
from repro.testing import establish_clients, run_for


@pytest.fixture
def pair(two_nodes):
    src, dst = two_nodes.nodes
    install_migd(src)
    daemon = install_migd(dst)
    return two_nodes, src, dst, daemon


class TestChannel:
    def test_request_reply(self, pair):
        cluster, src, dst, daemon = pair
        channel = MigrationChannel(src, dst)
        replies = []

        def go():
            reply = yield channel.request(
                {"op": "begin", "pid": 1, "name": "p", "nthreads": 1}, 256
            )
            replies.append(reply)

        cluster.env.process(go())
        run_for(cluster, 0.1)
        assert replies == [{"ok": True}]
        assert channel.bytes_sent == 256

    def test_bulk_transfer_takes_proportional_time(self, pair):
        """A 4 MB payload must occupy ~32 ms of a 1 Gb/s link."""
        cluster, src, dst, daemon = pair
        channel = MigrationChannel(src, dst)
        done_at = []

        def go():
            yield channel.request(
                {"op": "begin", "pid": 2, "name": "p", "nthreads": 1}, 4_000_000
            )
            done_at.append(cluster.env.now)

        start = cluster.env.now
        cluster.env.process(go())
        run_for(cluster, 0.2)
        elapsed = done_at[0] - start
        assert 0.030 < elapsed < 0.045

    @pytest.mark.parametrize(
        "session, per_packet",
        [(None, False), ("node1>node2#1", False), (None, True), ("node1>node2#1", True)],
        ids=["None", "node1>node2#1", "None-per-packet", "node1>node2#1-per-packet"],
    )
    def test_bytes_sent_matches_wire_bytes_both_paths(self, pair, session, per_packet):
        """Channel accounting must equal what crossed the wire, chunking
        included, for request() and send(): on the chunk-train path and
        on the per-packet path that a tap on the uplink forces."""
        cluster, src, dst, daemon = pair
        uplink = cluster.local_links[src.name]  # the host transmits from side 1
        if per_packet:
            uplink.add_tap(lambda t, p, side: None)
        nic = dst.local_iface
        channel = MigrationChannel(src, dst, session=session)
        sent_before = (uplink.bytes_sent[1], uplink.packets_sent[1])
        rx_before = (nic.rx_bytes, nic.rx_packets)
        chunk = src.kernel.costs.migration_chunk_bytes
        nbytes = 3 * chunk + 777  # forces 3 padding chunks + remainder

        def go():
            yield channel.request(
                {"op": "begin", "pid": 1, "name": "p", "nthreads": 1}, nbytes
            )
            channel.send(
                {"op": "round", "pid": 1, "pages": {1: 1}, "vmas": None,
                 "socket_records": []},
                nbytes,
            )

        cluster.env.process(go())
        run_for(cluster, 0.1)
        header = IP_HEADER_BYTES + UDP_HEADER_BYTES + src.kernel.costs.ctl_overhead_bytes
        sent = (uplink.bytes_sent[1] - sent_before[0], uplink.packets_sent[1] - sent_before[1])
        received = (nic.rx_bytes - rx_before[0], nic.rx_packets - rx_before[1])
        # Two messages of 3 padding chunks + 1 final packet each.
        assert sent[1] == received[1] == 2 * 4
        assert sent[0] - 8 * header == received[0] - 8 * header == 2 * nbytes
        assert channel.bytes_sent == 2 * nbytes

    def test_one_way_send_is_fifo_before_request(self, pair):
        cluster, src, dst, daemon = pair
        channel = MigrationChannel(src, dst)

        def go():
            yield channel.request(
                {"op": "begin", "pid": 3, "name": "p", "nthreads": 1}, 64
            )
            channel.send(
                {"op": "round", "pid": 3, "pages": {1: 1}, "vmas": None,
                 "socket_records": []},
                1000,
            )
            yield channel.request(
                {"op": "round", "pid": 3, "pages": {2: 1}, "vmas": None,
                 "socket_records": []},
                64,
            )

        cluster.env.process(go())
        run_for(cluster, 0.1)
        (inbound,) = daemon.inbound_for(3)
        # Both rounds were applied, in order.
        assert inbound.rounds_received == 2
        assert inbound.staged_pages == {1: 1, 2: 1}


class TestDaemonProtocol:
    def test_unknown_op_is_rpc_error(self, pair):
        cluster, src, dst, daemon = pair
        caught = []

        def go():
            try:
                yield src.control.rpc(dst.local_ip, MIGD_PORT, {"op": "teleport"})
            except RpcError as exc:
                caught.append(str(exc))

        cluster.env.process(go())
        run_for(cluster, 0.1)
        assert caught and "unknown op" in caught[0]

    def test_round_without_begin_crashes_cleanly(self, pair):
        cluster, src, dst, daemon = pair
        with pytest.raises(RuntimeError, match="no inbound migration"):
            daemon._handle(
                {"op": "round", "pid": 999, "pages": {}, "socket_records": []},
                src.local_ip,
                None,
            )

    def test_abort_cleans_up_capture(self, pair):
        cluster, src, dst, daemon = pair

        def go():
            yield src.control.rpc(
                dst.local_ip, MIGD_PORT,
                {"op": "begin", "pid": 7, "name": "p", "nthreads": 1},
            )
            yield src.control.rpc(
                dst.local_ip, MIGD_PORT,
                {"op": "capture", "pid": 7, "keys": [(None, 0, 12345)]},
            )
            yield src.control.rpc(dst.local_ip, MIGD_PORT, {"op": "abort", "pid": 7})

        cluster.env.process(go())
        run_for(cluster, 0.2)
        assert not daemon.inbound_for(7)
        assert daemon.capture.active_keys() == []

    def test_capture_install_charges_time(self, pair):
        cluster, src, dst, daemon = pair
        done = []

        def go():
            yield src.control.rpc(
                dst.local_ip, MIGD_PORT,
                {"op": "begin", "pid": 8, "name": "p", "nthreads": 1},
            )
            t0 = cluster.env.now
            keys = [(None, 0, 10000 + i) for i in range(100)]
            yield src.control.rpc(
                dst.local_ip, MIGD_PORT, {"op": "capture", "pid": 8, "keys": keys}
            )
            done.append(cluster.env.now - t0)

        cluster.env.process(go())
        run_for(cluster, 0.2)
        # At least 100 * capture_install_cost beyond the pure RTT.
        assert done[0] > 100 * dst.kernel.costs.capture_install_cost

    def test_chunk_messages_ignored(self, pair):
        cluster, src, dst, daemon = pair
        src.control.send(dst.local_ip, MIGD_PORT, {"op": "chunk"}, size=1000)
        run_for(cluster, 0.1)  # no error, nothing staged
        assert daemon._inbound == {}

    def test_install_idempotent(self, pair):
        cluster, src, dst, daemon = pair
        assert install_migd(dst) is daemon


class TestConcurrentStaging:
    def test_equal_pids_from_two_sources_stage_separately(self, cluster):
        """Regression: staging used to be keyed by bare pid, so two
        sources migrating equal-pid processes to one destination would
        interleave rounds into a single corrupted buffer."""
        a, b, dst = cluster.nodes
        install_migd(a)
        install_migd(b)
        daemon = install_migd(dst)
        chan_a = MigrationChannel(a, dst)  # no session: (source_ip, pid) keying
        chan_b = MigrationChannel(b, dst)

        def migrate(chan, marker):
            yield chan.request(
                {"op": "begin", "pid": 5, "name": f"p{marker}", "nthreads": 1}, 64
            )
            yield chan.request(
                {"op": "round", "pid": 5, "pages": {1: marker}, "vmas": None,
                 "socket_records": []},
                64,
            )
            yield chan.request(
                {"op": "round", "pid": 5, "pages": {2: marker}, "vmas": None,
                 "socket_records": []},
                64,
            )

        cluster.env.process(migrate(chan_a, 111))
        cluster.env.process(migrate(chan_b, 222))
        run_for(cluster, 0.2)
        buffers = daemon.inbound_for(5)
        assert len(buffers) == 2
        staged = {st.source_ip: st.staged_pages for st in buffers}
        assert staged[a.local_ip] == {1: 111, 2: 111}
        assert staged[b.local_ip] == {1: 222, 2: 222}
        assert all(st.rounds_received == 2 for st in buffers)


class TestAbortRaces:
    def test_abort_races_inflight_capture_install(self, pair):
        """An abort arriving while migd-capture is still paying the
        filter-install cost must leave no filter enabled."""
        cluster, src, dst, daemon = pair
        tracer = cluster.env.enable_tracing()
        keys = [(None, 0, 20000 + i) for i in range(100)]

        def go():
            yield src.control.rpc(
                dst.local_ip, MIGD_PORT,
                {"op": "begin", "pid": 9, "name": "p", "nthreads": 1},
            )
            # One-way, back to back: the abort lands on the destination
            # while the capture install is still mid-yield.
            src.control.send(
                dst.local_ip, MIGD_PORT, {"op": "capture", "pid": 9, "keys": keys}
            )
            src.control.send(dst.local_ip, MIGD_PORT, {"op": "abort", "pid": 9})

        cluster.env.process(go())
        run_for(cluster, 0.2)
        assert daemon.capture.active_keys() == []
        assert not daemon.inbound_for(9)
        assert any(e.name == "migd.capture.skipped" for e in tracer.events)

    def test_abort_races_inflight_restore(self):
        """A source-side timeout (and rollback) while migd-restore is
        mid-flight must not leave a half-adopted process: the back-out
        hands every restored socket back to the source stack."""
        cluster = build_cluster(
            n_nodes=2,
            with_db=False,
            cost_model=CostModel(tcp_restore_cost=0.05),
        )
        tracer = cluster.env.enable_tracing()
        node, dst = cluster.nodes
        proc = node.kernel.spawn_process("srv")
        proc.address_space.mmap(32)
        listener, children, _clients = establish_clients(cluster, node, proc, 27960, 3)
        # 4 TCP sockets x 50 ms restore >> the 50 ms rpc timeout: the
        # engine gives up and rolls back while the restore is in-flight.
        engine = LiveMigrationEngine(
            node, dst, proc, LiveMigrationConfig(rpc_timeout=0.05)
        )
        daemon = install_migd(dst)
        report = cluster.env.run(until=engine.start())
        assert not report.success
        run_for(cluster, 1.0)  # let the destination back out of the restore
        # The process runs on the source only.
        assert proc.pid in node.kernel.processes
        assert proc.pid not in dst.kernel.processes
        assert proc.kernel is node.kernel
        assert not proc.is_frozen
        # No staging, no capture filters, no dest-side socket state left.
        assert not daemon.inbound_for(proc.pid)
        assert daemon.capture.active_keys() == []
        for sock in [listener, *children]:
            assert sock.stack is node.stack
            assert not sock.migrating
        for child in children:
            assert node.stack.tables.ehash_lookup(child.flow_key) is child
            assert dst.stack.tables.ehash_lookup(child.flow_key) is None
        assert any(e.name == "migd.restore.aborted" for e in tracer.events)
