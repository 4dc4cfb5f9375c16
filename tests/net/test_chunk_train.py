"""Chunk trains against the per-packet oracle.

A chunk train (``ControlPlane.send_train``) must be indistinguishable
from sending its chunks one packet at a time: same delivery times for
every other packet, same link, switch and NIC counters at every read.
A no-op tap on the links forces the per-packet path, so each scenario
runs twice, once per path, and everything observable must match.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cluster import build_cluster
from repro.net import PROTO_CTL

TRAIN_PORT = 7300  # nothing listens: chunks are dropped on arrival
MSG_PORT = 7301

#: Send times on a coarse grid, and few sizes, so that a train's chunks
#: and other packets reach the switch at exactly the same instant.
TIMES = (0.0, 1e-4, 2.5e-4, 1e-3)
SIZES = (1000, 1460, 61440)


def _world(per_packet: bool):
    cluster = build_cluster(n_nodes=3, with_db=False)
    cluster.enable_metrics()
    log = []
    for node in cluster.nodes:
        node.control.register(
            MSG_PORT,
            lambda body, src_ip, respond, node=node: log.append(
                (cluster.env.now, node.name, body)
            ),
        )
    if per_packet:
        for link in cluster.local_links.values():
            link.add_tap(lambda t, p, side: None)
    return cluster, log


def _schedule(cluster, actions):
    nodes = cluster.nodes
    for i, (t, kind, src, dst, size, count) in enumerate(actions):
        source, dest = nodes[src], nodes[dst]
        if kind == "train":
            fn = lambda _, s=source, d=dest, z=size, n=count: s.control.send_train(
                d.local_ip, TRAIN_PORT, {"op": "chunk"}, z, n
            )
        else:
            fn = lambda _, s=source, d=dest, z=size, i=i: s.control.send(
                d.local_ip, MSG_PORT, i, size=z
            )
        cluster.env.call_later(t, fn)


def _read(cluster):
    """Every counter the train path defers, through its public reads."""
    out = {"forwarded": cluster.switch.forwarded}
    for name, link in cluster.local_links.items():
        out[name] = (
            list(link.bytes_sent),
            list(link.packets_sent),
            link.queueing_delay(0),
            link.queueing_delay(1),
        )
    for node in cluster.nodes:
        nic = node.local_iface
        out[node.name] = (nic.rx_packets, nic.rx_bytes, nic.tx_packets, nic.tx_bytes)
    out["gauges"] = cluster.env.metrics.snapshot()
    return out


def _chunk_arrivals(actions) -> list[float]:
    """Per-packet run recording when each chunk reaches the switch and
    the destination NIC (computed as ``Link.send`` computes it)."""
    cluster, _ = _world(per_packet=True)
    times = []

    def record(link):
        def tap(start, packet, side):
            if packet.proto == PROTO_CTL and packet.dport == TRAIN_PORT:
                done = start + packet.size * 8 / link.bandwidth_bps
                times.append(done + link.latency)

        return tap

    for link in cluster.local_links.values():
        link.add_tap(record(link))
    _schedule(cluster, actions)
    cluster.env.run()
    return times


def _run(actions, stops, per_packet):
    cluster, log = _world(per_packet)
    _schedule(cluster, actions)
    reads = []
    for t in stops:
        cluster.env.run(until=t)
        reads.append(_read(cluster))
    cluster.env.run()
    reads.append(_read(cluster))
    return log, reads


node_index = st.integers(0, 2)
action = st.tuples(
    st.sampled_from(TIMES),
    st.sampled_from(["train", "msg"]),
    node_index,
    node_index,
    st.sampled_from(SIZES),
    st.integers(1, 5),
).filter(lambda a: a[2] != a[3])


# Two sources on identical links, equal sizes and send times: the train's
# first chunk and the other packet reach the switch at the same instant.
# Whichever was handed to its first link first must leave first.
@example(
    actions=[(0.0, "train", 0, 2, 1000, 3), (0.0, "msg", 1, 2, 1000, 1)],
    picks=[],
)
@example(
    actions=[(0.0, "msg", 1, 2, 1000, 1), (0.0, "train", 0, 2, 1000, 3)],
    picks=[],
)
@example(
    actions=[
        (0.0, "train", 0, 2, 1460, 4),
        (0.0, "train", 1, 2, 1460, 2),
        (1e-4, "msg", 2, 0, 1460, 1),
        (1e-4, "msg", 1, 2, 1460, 1),
    ],
    picks=[0, 3, 5],
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    actions=st.lists(action, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 10_000), max_size=6),
)
def test_train_matches_per_packet_oracle(actions, picks):
    arrivals = sorted(set(_chunk_arrivals(actions)))
    # Stops exactly at chunk arrival times, plus midpoints between them.
    stops = set()
    for pick in picks:
        if arrivals:
            i = pick % len(arrivals)
            stops.add(arrivals[i])
            if i + 1 < len(arrivals):
                stops.add((arrivals[i] + arrivals[i + 1]) / 2)
    stops = sorted(stops)

    train_log, train_reads = _run(actions, stops, per_packet=False)
    oracle_log, oracle_reads = _run(actions, stops, per_packet=True)
    assert train_log == oracle_log
    assert train_reads == oracle_reads


def test_tie_examples_really_tie():
    """The tie-break examples above exercise a same-instant arrival."""
    actions = [(0.0, "train", 0, 2, 1000, 3), (0.0, "msg", 1, 2, 1000, 1)]
    arrivals = _chunk_arrivals(actions)
    cluster, log = _world(per_packet=True)
    link = cluster.local_links["node2"]
    msg_at = []
    link.add_tap(
        lambda start, p, side: msg_at.append(
            start + p.size * 8 / link.bandwidth_bps + link.latency
        )
        if side == 1
        else None
    )
    _schedule(cluster, actions)
    cluster.env.run()
    assert msg_at and msg_at[0] in arrivals


def test_train_takes_one_event_and_no_packets():
    """The train path schedules no per-chunk events and builds no
    packets, yet every counter reads as if it had."""
    runs = {}
    for per_packet in (False, True):
        cluster, _ = _world(per_packet)
        src, dst = cluster.nodes[0], cluster.nodes[2]
        env = cluster.env
        before = len(env._queue)
        src.control.send_train(dst.local_ip, TRAIN_PORT, {"op": "chunk"}, 61440, 50)
        queued = len(env._queue) - before
        env.run()
        runs[per_packet] = (queued, _read(cluster))
    assert runs[False][0] == 1
    assert runs[True][0] == 50
    assert runs[False][1] == runs[True][1]
    assert runs[False][1]["forwarded"] == 50
