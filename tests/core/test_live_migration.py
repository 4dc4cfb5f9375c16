"""End-to-end live-migration integration tests.

These exercise the full pipeline: precopy rounds over the cluster
switch, freeze-phase socket migration with capture, restore with
timestamp adjustment, reinjection, and transparent continuation of
client traffic — plus the negative controls that show why each
mechanism is needed.
"""

import pytest

from repro.core import LiveMigrationConfig, install_transd, migrate_process
from repro.net import Endpoint
from repro.oskern import RegularFile
from repro.tcpip import TCPSocket
from repro.tcpip.tcp import ACK
from repro.testing import connect_local_tcp, establish_clients, run_for

from .conftest import make_server_proc, start_client_pinger, start_echo


def run_migration(cluster, source, dest, proc, config=None):
    ev = migrate_process(source, dest, proc, config)
    return cluster.env.run(until=ev)


class TestBasicMigration:
    def test_process_moves_with_memory_and_files(self, two_nodes):
        node, proc = make_server_proc(two_nodes, npages=128)
        proc.fdtable.install(RegularFile(path="/maps/q3dm17.bsp", offset=512))
        area = proc.address_space.vmas[0]
        proc.address_space.write_range(area, count=10)
        versions = proc.address_space.content_snapshot()
        dest = two_nodes.nodes[1]
        report = run_migration(two_nodes, node, dest, proc)

        assert report.success
        assert proc.kernel is dest.kernel
        assert proc.pid in dest.kernel.processes
        assert proc.pid not in node.kernel.processes
        assert proc.address_space.content_snapshot() == versions
        files = proc.fdtable.regular_files()
        assert files[0][1].path == "/maps/q3dm17.bsp"
        assert report.freeze_time > 0
        assert report.freeze_time < 0.050

    def test_precopy_rounds_happen(self, two_nodes):
        node, proc = make_server_proc(two_nodes, npages=256)
        report = run_migration(two_nodes, node, two_nodes.nodes[1], proc)
        assert report.precopy_rounds >= 3
        assert report.bytes.precopy_pages > 0
        # The first round moved the bulk; freeze moved only the tail.
        assert report.bytes.freeze_pages < report.bytes.precopy_pages

    def test_app_frozen_only_during_freeze_phase(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        area = proc.address_space.vmas[0]
        ticks = []

        def app():
            while True:
                yield from proc.check_frozen()
                ticks.append(two_nodes.env.now)
                proc.address_space.write_range(area, count=2)
                yield two_nodes.env.timeout(0.005)

        two_nodes.env.process(app())
        report = run_migration(two_nodes, node, two_nodes.nodes[1], proc)
        during_precopy = [
            t for t in ticks if report.started_at <= t < report.frozen_at
        ]
        during_freeze = [
            t for t in ticks if report.frozen_at < t < report.thawed_at
        ]
        after = [t for t in ticks if t >= report.thawed_at]
        assert during_precopy  # app ran while precopying
        assert not during_freeze  # app never ran while frozen
        run_for(two_nodes, 0.1)
        assert [t for t in ticks if t >= report.thawed_at]  # resumed

    def test_memory_mutations_during_precopy_arrive(self, two_nodes):
        node, proc = make_server_proc(two_nodes, npages=64)
        area = proc.address_space.vmas[0]

        def mutator():
            for _ in range(50):
                if proc.is_frozen:
                    break
                proc.address_space.write_range(area, count=4)
                yield two_nodes.env.timeout(0.01)

        two_nodes.env.process(mutator())
        report = run_migration(two_nodes, node, two_nodes.nodes[1], proc)
        # All versions present on the destination equal the source state.
        assert proc.address_space.page_version(area.start) > 0

    def test_vma_changes_during_precopy(self, two_nodes):
        node, proc = make_server_proc(two_nodes, npages=16)
        new_areas = []

        def allocator():
            yield two_nodes.env.timeout(0.05)
            new_areas.append(proc.address_space.mmap(8, tag="late-alloc"))

        two_nodes.env.process(allocator())
        report = run_migration(two_nodes, node, two_nodes.nodes[1], proc)
        tags = [v.tag for v in proc.address_space.vmas]
        assert "late-alloc" in tags

    def test_migrate_to_self_rejected(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        with pytest.raises(ValueError):
            migrate_process(node, node, proc)

    def test_wrong_source_rejected(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        with pytest.raises(ValueError):
            migrate_process(two_nodes.nodes[1], node, proc)


class TestTransparentTCP:
    @pytest.mark.parametrize(
        "strategy", ["iterative", "collective", "incremental-collective"]
    )
    def test_clients_never_notice(self, two_nodes, strategy):
        node, proc = make_server_proc(two_nodes)
        _, children, clients = establish_clients(two_nodes, node, proc, 27960, 4)
        for ch in children:
            start_echo(two_nodes, proc, ch)
        stats = [start_client_pinger(two_nodes, c) for c in clients]
        run_for(two_nodes, 0.5)
        before = [s["received"] for s in stats]
        assert all(b > 5 for b in before)

        report = run_migration(
            two_nodes, node, two_nodes.nodes[1],
            proc, LiveMigrationConfig(strategy=strategy),
        )
        assert report.success
        run_for(two_nodes, 1.0)
        after = [s["received"] for s in stats]
        # Echoes keep flowing after migration on every strategy.
        assert all(a > b + 10 for a, b in zip(after, before))
        # Full transparency: no RST, no reconnect, same sockets.
        for c in clients:
            assert c.state == "ESTABLISHED"

    def test_sockets_unhashed_on_source_rehashed_on_dest(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        _, children, _ = establish_clients(two_nodes, node, proc, 27960, 3)
        dest = two_nodes.nodes[1]
        report = run_migration(two_nodes, node, dest, proc)
        assert len(node.stack.tables.ehash) == 0
        assert len(dest.stack.tables.ehash) == 3
        for ch in children:
            assert dest.stack.tables.ehash_lookup(ch.flow_key) is ch

    def test_lookup_and_receive_path_agree_across_rehash(self, two_nodes, monkeypatch):
        """``ehash_lookup(FlowKey)`` and the receive path's header-built
        key find the same socket on the source before migration, and on
        the destination after it."""
        node, proc = make_server_proc(two_nodes)
        _, children, clients = establish_clients(two_nodes, node, proc, 27960, 2)
        dest = two_nodes.nodes[1]

        def receivers(host):
            """The socket the IP layer demultiplexes each client's next
            segment to; the segment itself changes no TCP state."""
            found = []
            with monkeypatch.context() as m:
                m.setattr(TCPSocket, "segment_arrives", lambda sock, pkt: found.append(sock))
                for c in clients:
                    before = len(found)
                    host.stack.ip.ip_rcv_finish(c._build_packet(ACK, c.snd_nxt, None, 0))
                    if len(found) == before:
                        found.append(None)
            return found

        owners = [next(ch for ch in children if ch.remote == c.local) for c in clients]
        assert receivers(node) == owners
        assert [node.stack.tables.ehash_lookup(ch.flow_key) for ch in owners] == owners
        assert receivers(dest) == [None, None]
        report = run_migration(two_nodes, node, dest, proc)
        assert report.success
        assert receivers(dest) == owners
        assert [dest.stack.tables.ehash_lookup(ch.flow_key) for ch in owners] == owners
        assert receivers(node) == [None, None]

    def test_listener_keeps_accepting_after_migration(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        listener, children, _ = establish_clients(two_nodes, node, proc, 27960, 2)
        dest = two_nodes.nodes[1]
        report = run_migration(two_nodes, node, dest, proc)
        assert report.success
        # A brand-new client connects to the same public endpoint; the
        # migrated listener (now on node2) accepts it.
        newcomer = two_nodes.add_client()
        csock = newcomer.stack.tcp_socket()
        ev = csock.connect(Endpoint(two_nodes.public_ip, 27960))
        run_for(two_nodes, 1.0)
        assert ev.triggered
        assert csock.state == "ESTABLISHED"
        assert len(dest.stack.tables.ehash) == 3

    def test_timestamps_continuous_after_migration(self, two_nodes):
        """The client's PAWS state accepts post-migration segments."""
        node, proc = make_server_proc(two_nodes)
        _, children, clients = establish_clients(two_nodes, node, proc, 27960, 1)
        start_echo(two_nodes, proc, children[0])
        stats = start_client_pinger(two_nodes, clients[0])
        run_for(two_nodes, 0.5)
        report = run_migration(two_nodes, node, two_nodes.nodes[1], proc)
        run_for(two_nodes, 1.0)
        assert clients[0].paws_drops == 0
        assert report.jiffies_delta != 0  # clocks genuinely differed

    def test_skipping_timestamp_adjustment_breaks_paws(self):
        """Negative control: without the jiffies-delta adjustment the
        server's timestamps regress and the client drops its data."""
        from repro.cluster import Cluster, ClusterConfig
        from tests.core.conftest import make_server_proc as msp

        # Deterministic clocks: source boots much later than destination,
        # so skipping the adjustment makes timestamps jump backwards.
        cluster = Cluster(ClusterConfig(n_nodes=2, with_db=False, jiffies_spread=1))
        cluster.nodes[0].kernel.jiffies.boot_offset = 2_000_000
        cluster.nodes[1].kernel.jiffies.boot_offset = 0
        node, proc = msp(cluster)
        _, children, clients = establish_clients(cluster, node, proc, 27960, 1)
        start_echo(cluster, proc, children[0])
        stats = start_client_pinger(cluster, clients[0])
        run_for(cluster, 0.5)
        report = run_migration(
            cluster, node, cluster.nodes[1], proc,
            LiveMigrationConfig(adjust_timestamps=False),
        )
        # Sample *after* the migration: the app keeps serving normally
        # through the whole precopy phase.
        received_at_cutover = stats["received"]
        run_for(cluster, 1.0)
        assert clients[0].paws_drops > 0
        # Echo replies stopped reaching the client after cutover.
        assert stats["received"] <= received_at_cutover + 2


class TestCapture:
    def test_packets_during_freeze_are_captured_and_reinjected(self, two_nodes):
        node, proc = make_server_proc(two_nodes, npages=2048)
        _, children, clients = establish_clients(two_nodes, node, proc, 27960, 2)
        for ch in children:
            start_echo(two_nodes, proc, ch)
        # Aggressive senders plus a realistic page-dirtying rate: the
        # freeze window then reliably contains in-flight packets.
        stats = [start_client_pinger(two_nodes, c, interval=0.001) for c in clients]
        area = proc.address_space.vmas[0]

        def dirtier():
            while True:
                yield from proc.check_frozen()
                proc.address_space.write_range(area, count=400)
                yield two_nodes.env.timeout(0.005)

        two_nodes.env.process(dirtier())
        run_for(two_nodes, 0.2)
        report = run_migration(
            two_nodes, node, two_nodes.nodes[1], proc,
            LiveMigrationConfig(strategy="incremental-collective"),
        )
        assert report.packets_captured > 0
        assert report.packets_reinjected == report.packets_captured
        run_for(two_nodes, 1.0)
        # Nothing was lost: no client retransmission was needed for the
        # captured data (allow the odd RTO from queueing, but sequence
        # progress must be complete).
        for srv, st in zip(children, stats):
            assert st["received"] > 0

    def test_no_capture_causes_retransmissions(self, two_nodes):
        """Negative control (Section III-B): with capture disabled,
        packets in flight during the freeze are lost and TCP must
        retransmit, delaying the application."""
        node, proc = make_server_proc(two_nodes, npages=2048)
        _, children, clients = establish_clients(two_nodes, node, proc, 27960, 2)
        for ch in children:
            start_echo(two_nodes, proc, ch)
        [start_client_pinger(two_nodes, c, interval=0.001) for c in clients]
        # A game-server-like dirtying rate keeps the freeze image large
        # enough that the unprotected window spans several client sends.
        area = proc.address_space.vmas[0]

        def dirtier():
            while True:
                yield from proc.check_frozen()
                proc.address_space.write_range(area, count=400)
                yield two_nodes.env.timeout(0.005)

        two_nodes.env.process(dirtier())
        run_for(two_nodes, 0.2)
        report = run_migration(
            two_nodes, node, two_nodes.nodes[1], proc,
            LiveMigrationConfig(capture_enabled=False),
        )
        assert report.packets_captured == 0
        assert report.freeze_time > 0.005  # a real unprotected window
        run_for(two_nodes, 2.0)
        assert sum(c.retransmit_count for c in clients) > 0

    def test_unicast_router_defeats_capture(self):
        """Negative control (Section II-A): with a NAT-style unicast
        router the destination never sees in-flight packets, so capture
        cannot help and clients must retransmit."""
        from repro.cluster import build_cluster

        cluster = build_cluster(n_nodes=2, with_db=False, broadcast=False)
        router = cluster.router
        node, proc = make_server_proc(cluster)
        _, children, clients = establish_clients(cluster, node, proc, 27960, 2)
        # Pin existing flows to node 0 (where the server runs).
        for c in clients:
            router.pin_flow(c.local.ip, c.local.port, 27960, 0)
        for ch in children:
            start_echo(cluster, proc, ch)
        [start_client_pinger(cluster, c, interval=0.002) for c in clients]
        run_for(cluster, 0.2)
        report = run_migration(cluster, node, cluster.nodes[1], proc)
        # Filters were installed on the destination but captured nothing:
        # the router still funnels inbound packets to the old node.
        assert report.packets_captured == 0
        run_for(cluster, 2.0)
        assert sum(c.retransmit_count for c in clients) > 0


class TestUDPMigration:
    def test_udp_server_migrates_transparently(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        srv = node.stack.udp_socket(proc)
        srv.bind(27960, ip=node.public_ip)
        client = two_nodes.add_client()
        csock = client.stack.udp_socket()
        csock.bind(40000, ip=client.public_ip)
        got = {"n": 0}

        def server_loop():
            while True:
                yield from proc.check_frozen()
                skb = yield srv.recv()
                srv.sendto("snapshot", 256, skb.src)

        def client_rx():
            while True:
                yield csock.recv()
                got["n"] += 1

        def client_tx():
            while True:
                yield two_nodes.env.timeout(0.05)
                csock.sendto("input", 32, Endpoint(two_nodes.public_ip, 27960))

        two_nodes.env.process(server_loop())
        two_nodes.env.process(client_rx())
        two_nodes.env.process(client_tx())
        run_for(two_nodes, 0.5)
        before = got["n"]
        assert before > 0
        dest = two_nodes.nodes[1]
        report = run_migration(two_nodes, node, dest, proc)
        assert report.success
        assert report.n_udp_sockets == 1
        # Rehashed on the destination (Section V-C.2).
        assert dest.stack.tables.udp_lookup(two_nodes.public_ip, 27960) is srv
        assert node.stack.tables.udp_lookup(two_nodes.public_ip, 27960) is None
        run_for(two_nodes, 0.5)
        assert got["n"] > before + 5

    def test_udp_receive_queue_contents_migrate(self, two_nodes):
        node, proc = make_server_proc(two_nodes)
        srv = node.stack.udp_socket(proc)
        srv.bind(27960, ip=node.public_ip)
        client = two_nodes.add_client()
        csock = client.stack.udp_socket()
        csock.sendto("queued-datagram", 64, Endpoint(two_nodes.public_ip, 27960))
        run_for(two_nodes, 0.1)
        assert len(srv.receive_queue) == 1
        report = run_migration(two_nodes, node, two_nodes.nodes[1], proc)
        assert len(srv.receive_queue) == 1
        assert list(srv.receive_queue)[0].payload == "queued-datagram"


class TestInClusterMigration:
    def test_mysql_session_survives_migration(self, cluster):
        """The centrepiece of Section III-C: a zone server's DB session
        keeps working after the process moves, with the DB side kept
        completely unaware via address translation."""
        node, proc = make_server_proc(cluster)
        db_proc = cluster.db.kernel.spawn_process("mysqld")
        install_transd(cluster.db)
        zs_sock, db_sock = connect_local_tcp(
            cluster, node, proc, cluster.db, db_proc, port=3306
        )

        # DB behaviour: answer every query.
        def db_loop():
            while True:
                skb = yield db_sock.recv()
                if skb.size == 0:
                    return
                db_sock.send(("rows", skb.payload), 400)

        cluster.env.process(db_loop())
        answers = {"n": 0}

        def zs_reader():
            while True:
                yield zs_sock.recv()
                answers["n"] += 1

        def zs_query_loop():
            while True:
                yield from proc.check_frozen()
                yield cluster.env.timeout(0.05)
                zs_sock.send("SELECT * FROM world", 120)

        cluster.env.process(zs_reader())
        cluster.env.process(zs_query_loop())
        run_for(cluster, 0.5)
        before = answers["n"]
        assert before > 0

        dest = cluster.nodes[1]
        report = run_migration(cluster, node, dest, proc)
        assert report.success
        assert report.n_local_connections == 1
        run_for(cluster, 1.0)
        assert answers["n"] > before + 5
        # The DB peer still believes it talks to the original node.
        assert db_sock.remote.ip == node.local_ip
        # The migrated socket now lives at the destination's address.
        assert zs_sock.local.ip == dest.local_ip
        # transd did real work on the DB host.
        transd = cluster.db.daemons["transd"]
        assert transd.out_translated > 0 and transd.in_translated > 0
        assert cluster.db.stack.ip.checksum_drops == 0

    def test_second_hop_migration(self, cluster):
        """Migrate node1 -> node2 -> node3; translation chases the
        process using the original address the peer knows."""
        node, proc = make_server_proc(cluster)
        db_proc = cluster.db.kernel.spawn_process("mysqld")
        install_transd(cluster.db)
        zs_sock, db_sock = connect_local_tcp(
            cluster, node, proc, cluster.db, db_proc, port=3306
        )

        def db_loop():
            while True:
                skb = yield db_sock.recv()
                if skb.size == 0:
                    return
                db_sock.send("ack", 64)

        cluster.env.process(db_loop())
        r1 = run_migration(cluster, node, cluster.nodes[1], proc)
        assert r1.success
        r2 = run_migration(cluster, cluster.nodes[1], cluster.nodes[2], proc)
        assert r2.success
        assert zs_sock.local.ip == cluster.nodes[2].local_ip
        assert zs_sock.orig_local_ip == node.local_ip

        got = []

        def zs_reader():
            skb = yield zs_sock.recv()
            got.append(skb.payload)

        cluster.env.process(zs_reader())
        zs_sock.send("query-after-two-hops", 100)
        run_for(cluster, 0.5)
        assert got == ["ack"]
        # Exactly one active rule, pointing at the latest node.
        transd = cluster.db.daemons["transd"]
        assert len(transd.rules()) == 1
        assert transd.rules()[0].new_ip == cluster.nodes[2].local_ip
