"""Microbenchmarks of the simulation substrate itself.

Not paper figures — these track the simulator's own performance (event
throughput, packet path cost, checkpoint dump rate) so regressions in
the substrate are visible independently of the experiment harnesses.

Besides the pytest-benchmark suite, this module exports a
``bench_result(quick)`` hook for ``repro-bench run``.  Its metrics are
*calibration-normalized*: each measured throughput is multiplied by the
wall time of a fixed pure-Python calibration loop run in the same
process, turning machine-dependent ops/s into a dimensionless
"ops per calibration unit" that is stable across CI hosts.  That is
what makes the committed baseline in ``benchmarks/baselines/`` safe to
gate on *blockingly* (see the bench job in ``.github/workflows/ci.yml``
and ``docs/performance.md``).
"""

import random
import time

from repro.cluster import build_cluster
from repro.des import Environment
from repro.net import IPAddr, Link, PROTO_UDP, Packet
from repro.oskern import AddressSpace
from repro.testing import establish_clients


def test_des_event_throughput(benchmark):
    """Schedule and process 20k chained timeouts."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(20_000):
                yield env.timeout(0.001)

        env.process(ticker())
        env.run()
        return env.now

    result = benchmark(run)
    assert result > 19.9


def test_tcp_echo_round_trips(benchmark):
    """1000 request/response pairs through the full stack + router."""

    def run():
        cluster = build_cluster(n_nodes=2, with_db=False)
        node = cluster.nodes[0]
        proc = node.kernel.spawn_process("echo")
        _, children, clients = establish_clients(cluster, node, proc, 27960, 1)
        server, client = children[0], clients[0]
        done = {"n": 0}

        def echo():
            while True:
                skb = yield server.recv()
                server.send(skb.payload, 64)

        def pinger():
            for i in range(1000):
                client.send(i, 64)
                yield client.recv()
                done["n"] += 1

        cluster.env.process(echo())
        p = cluster.env.process(pinger())
        cluster.env.run(until=p)
        return done["n"]

    assert benchmark(run) == 1000


def test_dirty_page_checkpoint_rate(benchmark):
    """Dirty-page dump of a 64 MiB address space (16k pages)."""

    def setup():
        space = AddressSpace()
        area = space.mmap(16_384)
        space.clear_dirty()
        space.write_range(area, count=8_192)
        return (space,), {}

    def run(space):
        pages = space.dirty_pages()
        space.clear_dirty(pages)
        return len(pages)

    result = benchmark.pedantic(run, setup=setup, rounds=20)
    assert result == 8_192


def test_disabled_obs_guard_overhead(benchmark):
    """The disabled-observability hot-path pattern costs nothing.

    Every instrumented hot path guards with ``if tracer.enabled:`` /
    ``if metrics is not None:`` on a *default* environment (tracing and
    metrics off).  This measures exactly that pattern — 100k guard
    evaluations against a freshly built environment — and asserts the
    per-iteration cost stays far below a microsecond, i.e. the telemetry
    plane adds no measurable overhead while disabled.  The bound is
    ~50x reality, so it only trips on a structural regression (e.g. a
    guard that starts doing work while disabled).
    """
    env = Environment()
    assert not env.tracer.enabled
    assert env.metrics is None

    N = 100_000

    def run():
        tracer = env.tracer
        hits = 0
        for _ in range(N):
            if tracer.enabled:  # pragma: no cover - disabled path
                hits += 1
            metrics = env.metrics
            if metrics is not None:  # pragma: no cover - disabled path
                hits += 1
        return hits

    assert benchmark(run) == 0
    assert benchmark.stats.stats.mean / N < 1e-6


def test_dirty_write_range_throughput(benchmark):
    """Hot-range rewrites between dumps (the precopy dirty-page shape).

    Every round rewrites the same 8 hot ranges 64 times, then dumps the
    dirty version map and clears — re-dirtying hot pages many times per
    round is exactly what makes precopy converge or not, and is the
    workload the extent/difference-array write path batches.
    """

    def setup():
        space = AddressSpace()
        areas = [space.mmap(1024) for _ in range(16)]
        space.clear_dirty()
        hot = [(areas[i], (i * 61) % 900, 48) for i in range(8)]
        return (space, hot), {}

    def run(space, hot):
        for _ in range(64):
            for area, offset, count in hot:
                space.write_range(area, count, offset)
        pages = space.dirty_version_map()
        space.clear_dirty()
        return len(pages)

    result = benchmark.pedantic(run, setup=setup, rounds=20)
    assert result == 8 * 48


def test_vma_lookup(benchmark):
    """find_vma over a 512-area address space (page-fault path cost)."""
    space = AddressSpace()
    areas = [space.mmap(4) for _ in range(512)]
    targets = [a.start + 1 for a in areas]

    def run():
        found = 0
        lookup = space.find_vma
        for vpn in targets:
            if lookup(vpn) is not None:
                found += 1
        return found

    assert benchmark(run) == 512


def test_packet_batch_delivery(benchmark):
    """A same-tick burst of 2000 packets over one raw link.

    All sends land at the same simulated instant; FIFO serialization
    spreads the arrivals.  Measures the per-packet scheduling cost of
    the link's delivery path (one deferred call per packet, no Event churn).
    """

    def run():
        env = Environment()
        link = Link(env, bandwidth_bps=1e9, latency=60e-6, name="bench")
        got = []
        link.attach(0, got.append)
        link.attach(1, got.append)
        pkt = Packet(
            src_ip=IPAddr("10.0.0.1"),
            dst_ip=IPAddr("10.0.0.2"),
            proto=PROTO_UDP,
            sport=1,
            dport=2,
            payload_size=512,
        )
        for _ in range(2000):
            link.send(pkt, 0)
        env.run()
        return len(got)

    assert benchmark(run) == 2000


def test_migration_cost_scaling(benchmark):
    """One full 64-connection live migration, end to end (wall time)."""
    from repro.core import migrate_process

    def run():
        cluster = build_cluster(n_nodes=2, with_db=False)
        node = cluster.nodes[0]
        proc = node.kernel.spawn_process("zs")
        proc.address_space.mmap(500)
        establish_clients(cluster, node, proc, 27960, 64, settle=2.0)
        ev = migrate_process(node, cluster.nodes[1], proc)
        return cluster.env.run(until=ev)

    report = benchmark(run)
    assert report.success


# -- recordable hook (repro-bench run) ---------------------------------------
#: Iterations of the fixed calibration loop (never change this without
#: refreshing every committed baseline: it defines the unit).
_CALIBRATION_N = 200_000


def _calibration_unit() -> float:
    """Wall seconds of a fixed pure-Python loop (best of 3).

    The unit all hook metrics are normalized by: value = ops/s x this,
    i.e. "ops per calibration unit" — dimensionless and roughly stable
    across host speeds, which is what lets CI gate the committed
    baseline blockingly instead of advisorily.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_N):
            acc += i & 7
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of(reps, fn, *args):
    """(ops, best_seconds) over ``reps`` runs of ``fn`` -> ops."""
    best = float("inf")
    ops = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        ops = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return ops, best


def _run_dirty_writes(rounds):
    space = AddressSpace()
    areas = [space.mmap(1024) for _ in range(16)]
    space.clear_dirty()
    hot = [(areas[i], (i * 61) % 900, 48) for i in range(8)]
    pages = 0
    for _ in range(rounds):
        for _ in range(64):
            for area, offset, count in hot:
                space.write_range(area, count, offset)
                pages += count
        space.dirty_version_map()
        space.clear_dirty()
    return pages


def _run_random_writes(n_writes):
    space = AddressSpace()
    areas = [space.mmap(1024) for _ in range(16)]
    space.clear_dirty()
    rng = random.Random(42)
    picks = [
        (areas[rng.randrange(16)], rng.randrange(0, 900), 64) for _ in range(n_writes)
    ]
    for area, offset, count in picks:
        space.write_range(area, count, offset)
    return n_writes * 64


def _run_vma_lookups(n_loops):
    space = AddressSpace()
    areas = [space.mmap(4) for _ in range(512)]
    targets = [a.start + 1 for a in areas]
    lookup = space.find_vma
    found = 0
    for _ in range(n_loops):
        for vpn in targets:
            if lookup(vpn) is not None:
                found += 1
    return found


def _run_event_chain(n_events):
    env = Environment()

    def ticker():
        for _ in range(n_events):
            yield env.timeout(0.001)

    env.process(ticker())
    env.run()
    return n_events


def _run_packet_burst(n_packets):
    env = Environment()
    link = Link(env, bandwidth_bps=1e9, latency=60e-6, name="bench")
    got = []
    link.attach(0, got.append)
    link.attach(1, got.append)
    pkt = Packet(
        src_ip=IPAddr("10.0.0.1"),
        dst_ip=IPAddr("10.0.0.2"),
        proto=PROTO_UDP,
        sport=1,
        dport=2,
        payload_size=512,
    )
    for _ in range(n_packets):
        link.send(pkt, 0)
    env.run()
    return len(got)


def _run_tcp_echo(n_round_trips):
    cluster = build_cluster(n_nodes=2, with_db=False)
    node = cluster.nodes[0]
    proc = node.kernel.spawn_process("echo")
    _, children, clients = establish_clients(cluster, node, proc, 27960, 1)
    server, client = children[0], clients[0]

    def echo():
        while True:
            skb = yield server.recv()
            server.send(skb.payload, 64)

    def pinger():
        for i in range(n_round_trips):
            client.send(i, 64)
            yield client.recv()

    cluster.env.process(echo())
    p = cluster.env.process(pinger())
    cluster.env.run(until=p)
    return n_round_trips


def bench_result(quick: bool = False) -> dict:
    """Recordable substrate microbench document (repro-bench hook)."""
    cal = _calibration_unit()
    reps = 3
    sizes = {
        "dirty_rounds": 5 if quick else 20,
        "random_writes": 2_000 if quick else 8_192,
        "vma_loops": 4 if quick else 16,
        "events": 20_000 if quick else 100_000,
        "packets": 2_000 if quick else 8_000,
        "round_trips": 200 if quick else 1_000,
    }

    runs = {
        "dirty_write_hot_pages": _best_of(reps, _run_dirty_writes, sizes["dirty_rounds"]),
        "dirty_write_random_pages": _best_of(
            reps, _run_random_writes, sizes["random_writes"]
        ),
        "vma_lookups": _best_of(reps, _run_vma_lookups, sizes["vma_loops"]),
        "des_events": _best_of(reps, _run_event_chain, sizes["events"]),
        "link_packets": _best_of(reps, _run_packet_burst, sizes["packets"]),
        "tcp_round_trips": _best_of(reps, _run_tcp_echo, sizes["round_trips"]),
    }

    metrics = {
        name: {
            # ops/s x calibration seconds = ops per calibration unit.
            "value": round(ops / secs * cal, 3),
            "unit": "ops/cal-unit",
            "direction": "higher",
        }
        for name, (ops, secs) in runs.items()
    }

    # Footprint pass, *after* all timing: tracemalloc slows allocation
    # down badly, so peaks are measured in a separate single run per
    # workload.  Representation wins (dicts -> flat arrays) show up
    # here even when the ops/cal-unit numbers saturate.
    import tracemalloc

    mem_runners = {
        "dirty_write_hot_pages": (_run_dirty_writes, sizes["dirty_rounds"]),
        "dirty_write_random_pages": (_run_random_writes, sizes["random_writes"]),
        "link_packets": (_run_packet_burst, sizes["packets"]),
        "tcp_round_trips": (_run_tcp_echo, sizes["round_trips"]),
    }
    for name, (fn, arg) in mem_runners.items():
        tracemalloc.start()
        try:
            fn(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        metrics[f"{name}_mem_bytes"] = {
            "value": float(peak),
            "unit": "bytes",
            "direction": "lower",
        }

    return {
        "name": "micro_substrate",
        "params": {
            "quick": quick,
            "calibration_n": _CALIBRATION_N,
            "calibration_s": round(cal, 6),
            **sizes,
        },
        "metrics": metrics,
        "histograms": {},
    }
