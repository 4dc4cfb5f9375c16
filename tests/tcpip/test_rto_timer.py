"""The retransmission timer keeps one heap entry per socket.

``TCPSocket._arm_rto`` moves a deadline instead of adding a timer (like
Linux's ``mod_timer``), yet the timer must fire exactly where a heap
entry per arm would have fired it.  The oracle here is that older
timer, swapped in for a whole run: every retransmission must happen at
the same instant, bit for bit.
"""

from repro.cluster import build_cluster
from repro.net import DROP, Endpoint
from repro.tcpip import TCPSocket
from repro.testing import establish_clients, run_for


def _pair():
    cluster = build_cluster(n_nodes=2, with_db=False)
    _, children, clients = establish_clients(cluster, cluster.nodes[0], None, 27960, 1)
    return cluster, children[0], clients[0]


def _client_link(cluster):
    (link,) = cluster.client_links.values()
    return link


def _sends(cluster, client):
    """Transmit instants and sequence numbers of the client's data
    segments, recorded by a tap on its link."""
    log = []
    side = client.stack.kernel.public_iface.side

    def tap(t, pkt, from_side):
        if from_side == side and pkt.payload_size > 0:
            log.append((t, pkt.tcp.seq))

    _client_link(cluster).add_tap(tap)
    return log


def _record_arms(sock):
    """Each arm's (instant, rto), so the expected deadline is computed
    with the timer's own float operation."""
    arms = []
    arm = sock._arm_rto

    def recording_arm():
        arms.append((sock.env.now, sock.rto))
        arm()

    sock._arm_rto = recording_arm
    return arms


def _live_wakes(env, sock):
    return [
        entry for entry in env._queue
        if type(entry[3]) is tuple
        and entry[3][0] == sock._rto_due
        and entry[3][1] is sock._rto_wake
    ]


class TestRetransmissionInstants:
    def test_lost_segment_retransmitted_at_armed_at_plus_rto(self):
        cluster, server, client = _pair()
        client.send("seed", 64)
        run_for(cluster, 0.3)
        cluster.nodes[0].stack.tables.ehash_remove(server.flow_key)
        sends = _sends(cluster, client)
        arms = _record_arms(client)
        client.send("lost", 64)
        run_for(cluster, 2.0)
        (t0, rto0), (t1, rto1), *_ = arms
        assert rto1 == min(120.0, rto0 * 2)
        first, second, third, *_ = sends
        assert first[0] == t0
        assert first[1] == second[1] == third[1]
        assert second[0] == t0 + rto0
        assert t1 == second[0]
        assert third[0] == t1 + rto1

    def test_rearm_after_ack_fires_at_new_key(self):
        cluster, server, client = _pair()
        link = _client_link(cluster)
        side = client.stack.kernel.public_iface.side
        dropped = []

        def lose_b_once(t, pkt, from_side):
            if from_side == side and pkt.payload == "B" and not dropped:
                dropped.append(t)
                return DROP
            return None

        link.set_fault_filter(lose_b_once)
        sends = _sends(cluster, client)
        arms = _record_arms(client)
        client.send("A", 64)
        client.send("B", 64)
        run_for(cluster, 1.0)
        # The first arm (sending A) put the wake on the heap; the ACK of A
        # re-armed later with B still unacknowledged.
        assert len(arms) >= 2
        (t_send, _), (t_ack, rto_ack) = arms[0], arms[1]
        assert t_ack > t_send
        b_seq = sends[1][1]  # A, then B (lost on the wire)
        retransmits = [t for t, seq in sends[2:] if seq == b_seq]
        assert retransmits[0] == t_ack + rto_ack
        assert client.retransmit_count == 1

    def test_stop_then_earlier_rearm_fires_at_earlier_key(self):
        cluster, server, client = _pair()
        cluster.nodes[0].stack.tables.ehash_remove(server.flow_key)
        sends = _sends(cluster, client)
        client.rto = 1.0
        client.send("lost", 64)
        (pending,) = _live_wakes(cluster.env, client)
        assert pending[0] == cluster.env.now + 1.0
        run_for(cluster, 0.1)
        client._stop_rto()
        client.rto = 0.3
        now = cluster.env.now
        client._arm_rto()
        run_for(cluster, 0.5)
        assert sends[1][0] == now + 0.3
        assert client.retransmit_count == 1


class TestOneWakePerSocket:
    def test_heap_holds_at_most_one_live_wake(self):
        cluster = build_cluster(n_nodes=2, with_db=False)
        _, children, clients = establish_clients(cluster, cluster.nodes[0], None, 27960, 8)
        env = cluster.env
        seen = []

        def traffic():
            while True:
                for sock in children + clients:
                    sock.send("x", 200)
                    seen.append(len(_live_wakes(env, sock)))
                yield env.timeout(0.013)

        env.process(traffic())
        run_for(cluster, 1.0)
        assert seen and max(seen) == 1
        for sock in children + clients:
            assert len(_live_wakes(env, sock)) <= 1


def _entry_per_arm(monkeypatch):
    """Swap in the timer that pushes one heap entry per arm and lets a
    generation counter discard the stale ones."""

    def arm(self):
        self._gen = getattr(self, "_gen", 0) + 1
        self.rto_armed = True
        self.env.call_later(self.rto, fire, (self, self._gen))

    def stop(self):
        self._gen = getattr(self, "_gen", 0) + 1
        self.rto_armed = False

    def fire(args):
        sock, gen = args
        if gen == sock._gen and sock.rto_armed:
            sock._rto_fire()

    monkeypatch.setattr(TCPSocket, "_arm_rto", arm)
    monkeypatch.setattr(TCPSocket, "_stop_rto", stop)


def _lossy_run():
    """Clients and server exchanging data over links that drop one
    segment in five, deterministically; returns every data segment's
    transmit instant and sequence number, and the final clock."""
    cluster = build_cluster(n_nodes=2, with_db=False)
    _, children, clients = establish_clients(cluster, cluster.nodes[0], None, 27960, 4)
    log = []
    count = [0]

    def lossy(t, pkt, from_side):
        if pkt.payload_size > 0:
            log.append((t, from_side, pkt.tcp.seq))
            count[0] += 1
            if count[0] % 5 == 0:
                return DROP
        return None

    for link in cluster.client_links.values():
        link.set_fault_filter(lossy)
    env = cluster.env

    def traffic():
        for _ in range(40):
            for sock in children + clients:
                sock.send("x", 300)
            yield env.timeout(0.021)

    env.process(traffic())
    # Run the heap dry: the clock must end where the last stale wake
    # would have ended it.
    env.run()
    retransmits = sum(s.retransmit_count for s in children + clients)
    return log, retransmits, env.now


def test_matches_one_entry_per_arm(monkeypatch):
    lazy = _lossy_run()
    with monkeypatch.context() as m:
        _entry_per_arm(m)
        eager = _lossy_run()
    assert lazy[1] > 0
    assert lazy == eager


def _quiet_end():
    """Two segments, each acknowledged well within its RTO; then the heap
    runs dry.  Returns the final clock and every arm."""
    cluster, server, client = _pair()
    arms = _record_arms(client)
    client.send("A", 64)
    run_for(cluster, 0.05)
    client.send("B", 64)  # re-armed later than A's still pending wake
    cluster.env.run()
    return cluster.env.now, arms


def test_run_dry_ends_where_stale_wakes_would(monkeypatch):
    lazy_now, arms = _quiet_end()
    with monkeypatch.context() as m:
        _entry_per_arm(m)
        eager_now, eager_arms = _quiet_end()
    assert arms == eager_arms
    t_b, rto_b = arms[-1]
    assert lazy_now == eager_now == t_b + rto_b


class TestControlRetransmissions:
    def test_syn_retransmission_is_counted(self):
        # The client's first SYN reaches node1 before anything listens
        # there and is dropped; the handshake completes on the SYN sent
        # again when the initial 0.2 s timeout fires.
        cluster = build_cluster(n_nodes=2, with_db=False)
        node = cluster.nodes[0]
        client = cluster.add_client().stack.tcp_socket()
        connected = client.connect(Endpoint(cluster.public_ip, 27960))
        run_for(cluster, 0.1)
        assert not connected.triggered
        listener = node.stack.tcp_socket()
        listener.bind(27960, ip=node.public_ip)
        listener.listen()
        run_for(cluster, 0.09)
        assert not connected.triggered
        run_for(cluster, 0.11)
        assert connected.triggered
        assert client.retransmit_count == 1
        assert client.rto == 0.4
