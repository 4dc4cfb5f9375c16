"""The broadcast fan-out against the copy-per-node oracle.

``BroadcastRouter`` does not simulate a copy that its node could not
take: the interface keeps it, counts it once the event heap passes its
arrival, and turns it back into a real delivery if the node's receive
state changes first.  That must be invisible.  Each scenario therefore
runs twice, once with the real router and once with a router that
delivers a copy to every node, and every report, trace and counter must
match.  The scenarios aim at the instants where skipping could show: a
hook, listener or interface changing exactly when a copy arrives, and a
counter read at a copy's arrival instant, before and after it.
"""

import pytest

import repro.cluster
from repro.analysis import SweepConfig, run_freeze_sweep
from repro.cluster import Cluster, build_cluster
from repro.core import capture_key_for, install_capture_service
from repro.faults import FaultPlan, NodeCrash, NodeStall, install_faults
from repro.net import BroadcastRouter, Endpoint, Interface
from repro.obs import trace_to_jsonl
from repro.testing import establish_clients, run_for

STRATEGIES = ("iterative", "collective", "incremental-collective")
PORT = 27960


class CopyEveryLink(BroadcastRouter):
    """The oracle: one delivered copy per server node, always."""

    def _from_client(self, packet):
        self.broadcast_count += 1
        for link in self._server_links:
            link.send(packet.copy(), from_side=0)


def counters(cluster):
    """Every receive counter a skipped copy touches, per server node."""
    out = {"now": cluster.env.now}
    for node in cluster.nodes:
        iface, ip = node.public_iface, node.stack.ip
        out[node.name] = (
            iface.rx_packets,
            iface.rx_bytes,
            iface.rx_dropped,
            ip.no_socket_drops,
            ip.checksum_drops,
            ip.delivered,
            ip.hook_stolen,
        )
    return out


def both(monkeypatch, scenario):
    """``scenario()`` with the real router, then with the oracle; also
    how many copies the real router skipped."""
    skipped = [0]
    skip = Interface.skip

    def counting_skip(self, entry):
        skipped[0] += 1
        skip(self, entry)

    results = []
    for router in (BroadcastRouter, CopyEveryLink):
        with monkeypatch.context() as m:
            m.setattr(repro.cluster, "BroadcastRouter", router)
            m.setattr(Interface, "skip", counting_skip)
            results.append(scenario())
    return results[0], results[1], skipped[0]


def traced_world(n_clients, n_nodes=2, setup=None):
    """A traced cluster with ``n_clients`` connected to node1;
    ``setup(cluster)`` runs first, at time 0."""
    cluster = build_cluster(n_nodes=n_nodes, with_db=False)
    tracer = cluster.env.enable_tracing()
    if setup is not None:
        setup(cluster)
    _, children, clients = establish_clients(
        cluster, cluster.nodes[0], None, PORT, n_clients
    )
    return cluster, tracer, children, clients


def start_traffic(cluster, socks, interval=0.011, size=300):
    def loop():
        while True:
            for sock in socks:
                sock.send("x", size)
            yield cluster.env.timeout(interval)

    cluster.env.process(loop())


# -- Fig. 5b migrations ---------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("n", [16, 64])
def test_fig5b_migration(monkeypatch, tmp_path, n, strategy):
    def scenario():
        seen = []
        close = Cluster.close

        def recording_close(cluster):
            seen.append(counters(cluster))
            close(cluster)

        out = tmp_path / str(len(list(tmp_path.iterdir())))
        with monkeypatch.context() as m:
            m.setattr(Cluster, "close", recording_close)
            result = run_freeze_sweep(
                SweepConfig(conn_counts=(n,), strategies=(strategy,), repetitions=1, trace_dir=out)
            )
        (point,) = result.points
        (trace,) = out.iterdir()
        return point.reports, trace.read_bytes(), seen

    skipping, copying, skipped = both(monkeypatch, scenario)
    assert skipped > 0
    assert skipping == copying


# -- a copy in flight when the node's receive state changes -----------------------
def _arrivals(monkeypatch, scenario, node_index):
    """Arrival instants of the client copies sent to server node
    ``node_index``, as the oracle delivers them."""
    arrivals = []
    send = CopyEveryLink._from_client

    def recording(self, packet):
        link = self._server_links[node_index]
        before = link.packets_sent[0]
        send(self, packet)
        assert link.packets_sent[0] == before + 1
        arrivals.append(link._busy_until[0] + link.latency)

    with monkeypatch.context() as m:
        m.setattr(repro.cluster, "BroadcastRouter", CopyEveryLink)
        m.setattr(CopyEveryLink, "_from_client", recording)
        scenario()
    return arrivals


def at_instant(env, when, fn, after):
    """Run ``fn`` at exactly ``when`` (scheduled at time 0, so the float
    sum is ``when`` itself): ahead of a copy arriving then (this entry
    has the smaller event id), or right after it."""
    assert env.now == 0.0

    def first(_):
        if after:
            env.call_later(0.0, fn)
        else:
            fn(None)

    env.call_later(when, first)


def capture_world(change_at=None, after=False):
    """One client segment towards the owner, node1; node2 enables a
    capture filter for its flow at ``change_at``."""
    state = {}

    def setup(cluster):
        if change_at is not None:
            enable = lambda _: state["svc"].enable([state["key"]])  # noqa: E731
            at_instant(cluster.env, change_at, enable, after)

    cluster, tracer, children, clients = traced_world(1, setup=setup)
    svc = install_capture_service(cluster.nodes[1])
    state.update(svc=svc, key=capture_key_for(children[0]))
    cluster.env.call_later(0.01, lambda _: clients[0].send("segment", 200))
    run_for(cluster, 0.1)
    return svc.queue_length(state["key"]), svc.total_captured, counters(cluster), trace_to_jsonl(tracer)


@pytest.mark.parametrize("after", [False, True])
@pytest.mark.parametrize("hops", [-1, 0, 1])
def test_segment_in_flight_at_capture_enable(monkeypatch, hops, after):
    arrivals = _arrivals(monkeypatch, capture_world, node_index=1)
    arrival = arrivals[-1]  # the data segment, the last client packet
    when = arrival + hops * repro.cluster.ClusterConfig().public_latency
    skipping, copying, skipped = both(monkeypatch, lambda: capture_world(when, after))
    assert skipped > 0
    assert skipping == copying
    captured = skipping[0]
    assert captured == (1 if hops < 0 or (hops == 0 and not after) else 0)


def listen_world(listen_at=None, after=False, in_process=False):
    """A client connects to node1, which listens only from ``listen_at``
    on; ``in_process`` listens from a process started then (its first
    step runs at that instant, from an URGENT heap entry)."""
    cluster = build_cluster(n_nodes=2, with_db=False)
    tracer = cluster.env.enable_tracing()
    node = cluster.nodes[0]
    listener = node.stack.tcp_socket()
    listener.bind(PORT, ip=node.public_ip)
    children = []

    def listen(_):
        listener.listen()

        def accept():
            while True:
                children.append((yield listener.accept()))

        cluster.env.process(accept())

    def listen_in_process(_):
        def start():
            listen(None)
            yield cluster.env.timeout(0)

        cluster.env.process(start())

    if listen_at is not None:
        at_instant(cluster.env, listen_at, listen_in_process if in_process else listen, after)
    client = cluster.add_client().stack.tcp_socket()
    connected = []
    client.connect(Endpoint(cluster.public_ip, PORT)).callbacks.append(
        lambda _: connected.append(cluster.env.now)
    )
    run_for(cluster, 1.0)
    return connected, client.state, len(children), counters(cluster), trace_to_jsonl(tracer)


@pytest.mark.parametrize("in_process", [False, True])
@pytest.mark.parametrize("after", [False, True])
@pytest.mark.parametrize("hops", [-1, 0, 1])
def test_syn_in_flight_when_listener_binds(monkeypatch, hops, after, in_process):
    (syn_arrival, *_) = _arrivals(monkeypatch, listen_world, node_index=0)
    when = syn_arrival + hops * repro.cluster.ClusterConfig().public_latency
    skipping, copying, skipped = both(
        monkeypatch, lambda: listen_world(when, after, in_process)
    )
    assert skipped > 0
    assert skipping == copying
    (connected_at,), *_ = skipping
    # The first SYN is taken only when the listener was there before it;
    # otherwise the client's SYN retransmission (RTO 0.2 s) connects.
    assert (connected_at < 0.2) == (hops < 0 or (hops == 0 and not after))


def test_node_crash_and_recover(monkeypatch):
    def scenario():
        cluster, tracer, children, clients = traced_world(4, n_nodes=3)
        start_traffic(cluster, clients + children)
        plan = FaultPlan(
            [
                NodeStall(cluster.env.now + 0.05, "node2", duration=0.1),
                NodeStall(cluster.env.now + 0.2, "node1", duration=0.05),
                NodeCrash(cluster.env.now + 0.3, "node3"),
            ]
        )
        install_faults(cluster, plan)
        run_for(cluster, 0.6)
        stats = [(s.bytes_received, s.retransmit_count) for s in clients + children]
        return stats, counters(cluster), trace_to_jsonl(tracer)

    skipping, copying, skipped = both(monkeypatch, scenario)
    assert skipped > 0
    assert skipping == copying
    assert skipping[1]["node3"][2] > 0  # copies eaten by the crashed node


def test_counter_reads_at_a_copy_arrival(monkeypatch):
    def world(reads_at=()):
        reads = []

        def setup(cluster):
            other = cluster.nodes[1]

            def read(_):
                iface, ip = other.public_iface, other.stack.ip
                reads.append((cluster.env.now, iface.rx_packets, iface.rx_bytes,
                               iface.rx_dropped, ip.no_socket_drops, ip.checksum_drops))

            for when in reads_at:
                at_instant(cluster.env, when, read, after=False)
                at_instant(cluster.env, when, read, after=True)

        cluster, tracer, children, clients = traced_world(2, setup=setup)
        start_traffic(cluster, clients)
        run_for(cluster, 0.1)
        return reads, counters(cluster), trace_to_jsonl(tracer)

    arrivals = _arrivals(monkeypatch, world, node_index=1)[-20:]
    skipping, copying, skipped = both(monkeypatch, lambda: world(arrivals))
    assert skipped > 0
    assert skipping == copying
    reads = skipping[0]
    assert len(reads) == 2 * len(arrivals)
    # Each pair straddles the copy arriving at that instant.
    by_instant = {}
    for row in reads:
        by_instant.setdefault(row[0], []).append(row)
    for rows in by_instant.values():
        assert rows[-1][1] > rows[0][1]
