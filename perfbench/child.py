"""One workload in a fresh single-threaded interpreter (started by run.py).

    python3 perfbench/child.py setup   WORKLOAD SEED
    python3 perfbench/child.py measure WORKLOAD SEED SECONDS
    python3 perfbench/child.py trace   WORKLOAD SEED SECONDS TRACE_OUT

``setup`` imports the simulator, builds the first unit's world and stops
at its first simulated event, reporting that instant on the monotonic
clock.  ``measure`` runs whole passes over the workload's units until
SECONDS have passed, each unit on the least contended CPU.  ``trace`` runs a warm-up pass, then pairs of an
untraced and a traced pass (:mod:`layers`) until SECONDS have passed, and
writes the traced spans to TRACE_OUT.  The simulator is imported from
``src/`` of the checkout this file sits in, never from anywhere else.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_simulator() -> None:
    """Put the checkout's ``src/`` first on the path and check that
    ``repro`` really comes from there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator source under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


import_simulator()

import workloads  # noqa: E402  (needs the simulator on the path)
from layers import OTHER, LayerTracer  # noqa: E402


class _FirstEvent(BaseException):
    """Raised by the setup probe at the first ``Environment.run`` call."""


def pin_to_quietest_cpu() -> None:
    """Move this process to the CPU that runs a short spin fastest.

    On a shared host each vCPU is slowed by its neighbours in phases of
    seconds to minutes, independently of the other; a lone busy process
    stays on its CPU, so without this a whole run can sit on the slow one.
    """
    if len(_ALL_CPUS) < 2:
        return
    best = None
    for cpu in sorted(_ALL_CPUS):
        os.sched_setaffinity(0, {cpu})
        spin = min(_spin() for _ in range(3))
        if best is None or spin < best[0]:
            best = (spin, cpu)
    os.sched_setaffinity(0, {best[1]})


def _spin() -> float:
    t0 = time.perf_counter()
    n = 0
    for i in range(20_000):
        n += i
    return time.perf_counter() - t0


#: The CPUs this process may use, read before any pinning.
_ALL_CPUS = os.sched_getaffinity(0)


def run_pass(units: list[dict], registry: workloads.EnvRegistry):
    t0 = time.perf_counter()
    results = []
    for unit in units:
        pin_to_quietest_cpu()
        start = time.perf_counter()
        try:
            result = workloads.run_unit(unit)
        except Exception:  # a crashed unit is a failed unit, not a dead run
            problem = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
            result = workloads.UnitResult(unit, False, f"crashed: {problem}", None)
        result.wall = time.perf_counter() - start
        result.sim_s, result.events = registry.take()
        results.append(result)
    workloads.check_pass(results)
    return results, time.perf_counter() - t0


def setup(workload: str, seed: int) -> dict:
    from repro.des import Environment

    units = workloads.make_inputs(workload, seed)

    def run(env, until=None):
        raise _FirstEvent(time.monotonic())

    Environment.run = run
    try:
        workloads.run_unit(units[0])
    except _FirstEvent as first:
        return {"first_event_monotonic": first.args[0]}
    raise RuntimeError("the first unit ran no simulation")


def record(results: list, wall: float) -> dict:
    """What the run keeps of one pass; the outputs themselves are dropped
    so that the number of passes does not raise the peak RSS."""
    return {
        "wall": wall,
        "unit_walls": [r.wall for r in results],
        "digest": workloads.digest(results),
        "problems": [r.problem for r in results if not r.ok],
        "sim_s": sum(r.sim_s for r in results),
        "events": sum(r.events for r in results),
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    registry = workloads.EnvRegistry()
    registry.install()
    units = workloads.make_inputs(workload, seed)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(record(*run_pass(units, registry)))
    out = _summary(passes)
    out.update(
        walls=[p["wall"] for p in passes],
        unit_walls=[p["unit_walls"] for p in passes],
        sim_s=passes[0]["sim_s"],
        events=passes[0]["events"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out


# -- traced run -------------------------------------------------------------------
def probes() -> tuple[dict[str, int], dict]:
    """Counters that need a call's arguments or result, and the probes
    (``LayerTracer(probes=...)``) that fill them."""
    counts = {"net.bytes_on_wire": 0, "blcr.pages_dumped": 0, "core.capture.reinjected": 0}

    def link_send(args, kwargs, result):
        counts["net.bytes_on_wire"] += args[1].size

    def dump_pages(args, kwargs, result):
        counts["blcr.pages_dumped"] += len(result[0])

    def reinject(args, kwargs, result):
        counts["core.capture.reinjected"] += result

    return counts, {
        ("repro.net.link", "Link.send"): link_send,
        ("repro.blcr.checkpoint", "dump_pages"): dump_pages,
        ("repro.core.capture", "CaptureService.reinject"): reinject,
    }


def _is(module: str, qualname: str):
    return lambda _layer, m, q: m == module and q == qualname


def _in_module(module: str):
    return lambda _layer, m, _q: m == module


def _method(package: str, name: str):
    return lambda _layer, m, q: m.startswith(package) and q.endswith("." + name)


def layer_metrics(tracer: LayerTracer, counts: dict, events: int, untraced_wall: float) -> dict:
    """Every per-layer metric of one traced pass: ``name -> (value, unit)``."""
    wall = tracer.wall
    out: dict[str, tuple[float, str]] = {}
    for layer, total in tracer.layer_totals().items():
        if layer != OTHER:
            out[f"{layer}.calls"] = (total["calls"], "count")
            out[f"{layer}.self_s"] = (total["self_s"], "s")
        out[f"{layer}.self_share"] = (total["self_s"] / wall, "ratio")
    out["des.events"] = (events, "count")
    out["des.events_per_s"] = (events / untraced_wall, "1/s")

    def calls(pred):
        return tracer.select(pred)[0]

    def self_s(pred):
        return tracer.select(pred)[1]

    out["net.link_send.calls"] = (calls(_is("repro.net.link", "Link.send")), "count")
    out["net.packet_copy.calls"] = (calls(_is("repro.net.packet", "Packet.copy")), "count")
    out["net.bytes_on_wire"] = (counts["net.bytes_on_wire"], "bytes")
    received = calls(_is("repro.tcpip.ip", "IPLayer.ip_rcv"))
    segments = calls(_method("repro.tcpip.", "segment_arrives"))
    datagrams = calls(_method("repro.tcpip.", "datagram_arrives"))
    out["tcpip.ip_rcv.calls"] = (received, "count")
    out["tcpip.segment_arrives.calls"] = (segments, "count")
    out["tcpip.rx_useful_ratio"] = ((segments + datagrams) / received if received else 0.0, "ratio")
    out["oskern.write_range.self_s"] = (
        self_s(_is("repro.oskern.memory", "AddressSpace.write_range")),
        "s",
    )
    out["oskern.dirty_version_map.self_s"] = (
        self_s(_is("repro.oskern.memory", "AddressSpace.dirty_version_map")),
        "s",
    )
    dump_calls, dump_s = tracer.select(_is("repro.blcr.checkpoint", "dump_pages"))
    out["blcr.dump_pages.calls"] = (dump_calls, "count")
    out["blcr.dump_pages.self_s"] = (dump_s, "s")
    out["blcr.pages_dumped"] = (counts["blcr.pages_dumped"], "count")
    out["core.compress.self_s"] = (self_s(_in_module("repro.core.compress")), "s")
    out["core.sockmig.self_s"] = (self_s(_in_module("repro.core.sockmig")), "s")
    out["core.capture.reinjected"] = (counts["core.capture.reinjected"], "count")
    plan_calls, plan_s = tracer.select(_method("repro.middleware.strategy", "plan"))
    out["middleware.plan.calls"] = (plan_calls, "count")
    out["middleware.plan.self_s"] = (plan_s, "s")
    out["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
    return out


def trace(workload: str, seed: int, seconds: float, trace_out: str) -> dict:
    registry = workloads.EnvRegistry()
    registry.install()
    units = workloads.make_inputs(workload, seed)
    passes = [record(*run_pass(units, registry))]  # warm-up: lazy imports, allocator
    untraced_walls: list[float] = []
    traced: list[tuple[LayerTracer, dict, int]] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        passes.append(record(*run_pass(units, registry)))
        untraced_walls.append(passes[-1]["wall"])
        counts, probe_map = probes()
        tracer = LayerTracer(probe_map)
        tracer.install()
        try:
            with tracer:
                passes.append(record(*run_pass(units, registry)))
        finally:
            tracer.uninstall()
        traced.append((tracer, counts, passes[-1]["events"]))
    untraced_wall = statistics.median(untraced_walls)
    per_pass = [layer_metrics(t, c, e, untraced_wall) for t, c, e in traced]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                raise RuntimeError(f"{name} differs between traced passes: {values}")
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    with open(trace_out, "w") as fh:
        json.dump({"workload": workload, "seed": seed, **traced[0][0].dump()}, fh)
    out = _summary(passes)
    out["metrics"] = metrics
    return out


def _summary(passes: list[dict]) -> dict:
    """Check verdicts and digests over every pass."""
    problems = [problem for p in passes for problem in p["problems"]]
    return {
        "attempted": sum(len(p["unit_walls"]) for p in passes),
        "failed": len(problems),
        "problems": sorted(set(problems))[:5],
        "digests": sorted({p["digest"] for p in passes}),
    }


def main(argv: list[str]) -> dict:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        return setup(workload, seed)
    if mode == "measure":
        return measure(workload, seed, float(argv[3]))
    if mode == "trace":
        return trace(workload, seed, float(argv[3]), argv[4])
    raise SystemExit(f"perfbench: unknown mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
