"""The benchmark's own tests: inputs, checks, digests and the layer tracer.

    python3 -m pytest perfbench/tests

Units here are shrunken versions of the workloads' units (16 connections,
a 4Ki-page address space) so the whole file runs in seconds.
"""

import json
import os

import pytest

import child  # puts the checkout's src/ on the path
import run
import workloads
from layers import LAYERS, OTHER, LayerTracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SMALL_FIG5B = {"kind": "fig5b", "n": 16, "strategy": "collective", "seed": 7}
SMALL_BULK = {
    "kind": "bulk",
    "mode": "postcopy",
    "working_set": "hot",
    "compression": "none",
    "pages": 4096,
    "seed": 7,
    "prewrite": [[100, 50], [4000, 96]],
    "window_offset": 1234,
}


@pytest.fixture
def registry():
    reg = workloads.EnvRegistry()
    reg.install()
    yield reg
    reg.uninstall()


def traced_pass(units, registry):
    counts, probe_map = child.probes()
    tracer = LayerTracer(probe_map)
    tracer.install()
    try:
        with tracer:
            results, _ = child.run_pass(units, registry)
    finally:
        tracer.uninstall()
    events = sum(r.events for r in results)
    return tracer, counts, results, events


# -- inputs ---------------------------------------------------------------------
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert workloads.make_inputs(workload, 3) == workloads.make_inputs(workload, 3)
    assert workloads.make_inputs(workload, 3) != workloads.make_inputs(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_does_not_change_the_amount_of_work(workload):
    def shape(units):
        return [(u["kind"], u.get("n"), u.get("name"), u.get("pages"), u.get("mode")) for u in units]

    assert shape(workloads.make_inputs(workload, 3)) == shape(workloads.make_inputs(workload, 4))


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.make_inputs("nope", 1)


# -- tracing --------------------------------------------------------------------
def test_counts_and_events_repeat_exactly_and_digest_is_unchanged(registry):
    units = [SMALL_FIG5B, SMALL_BULK]
    untraced, _ = child.run_pass(units, registry)
    first = traced_pass(units, registry)
    second = traced_pass(units, registry)
    calls = [{k: v["calls"] for k, v in t.layer_totals().items()} for t, *_ in (first, second)]
    assert calls[0] == calls[1]
    assert first[1] == second[1]
    assert first[3] == second[3] > 0
    assert workloads.digest(untraced) == workloads.digest(first[2]) == workloads.digest(second[2])
    assert all(r.ok for r in untraced + first[2] + second[2])


def test_layer_self_times_sum_to_the_traced_wall(registry):
    tracer, counts, results, events = traced_pass([SMALL_FIG5B], registry)
    totals = tracer.layer_totals()
    assert set(totals) == {*LAYERS, OTHER}
    total = sum(t["self_s"] for t in totals.values())
    # Exact by construction up to float rounding; 1% leaves room for that.
    assert total == pytest.approx(tracer.wall, rel=0.01)
    assert all(t["self_s"] >= 0 for t in totals.values())
    for layer in ("des", "net", "tcpip", "oskern", "core"):
        assert totals[layer]["calls"] > 0, layer


def test_uninstall_restores_every_original():
    from repro.des import Environment
    from repro.net.link import Link
    from repro.oskern.memory import AddressSpace

    before = (Environment.process, Link.send, AddressSpace.write_range)
    tracer = LayerTracer()
    tracer.install()
    assert Link.send is not before[1]
    tracer.uninstall()
    assert (Environment.process, Link.send, AddressSpace.write_range) == before


def test_generator_resumes_are_timed_not_their_creation(registry):
    tracer, *_ = traced_pass([SMALL_BULK], registry)
    resumed = [
        f for f in tracer.by_key() if f["layer"] != OTHER and f["resumes"] > f["calls"]
    ]
    assert resumed, "no generator resume was attributed to a layer"


def test_layer_metrics_match_benchmark_json(registry):
    tracer, counts, results, events = traced_pass([SMALL_FIG5B], registry)
    metrics = child.layer_metrics(tracer, counts, events, untraced_wall=tracer.wall)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert metrics["tcpip.ip_rcv.calls"][0] > 0
    assert 0 < metrics["tcpip.rx_useful_ratio"][0] <= 1


# -- checks and failure accounting ---------------------------------------------------
def _fig5b_group(freeze_ms):
    return [
        workloads.UnitResult(
            {"kind": "fig5b", "n": 1024, "strategy": s, "seed": 1},
            True,
            "",
            {"freeze_time": ms / 1e3},
        )
        for s, ms in zip(workloads.FIG5B_STRATEGIES, freeze_ms)
    ]


def test_fig5b_order_check():
    good = _fig5b_group([300.0, 60.0, 20.0])
    workloads.check_pass(good)
    assert all(r.ok for r in good)
    swapped = _fig5b_group([300.0, 20.0, 60.0])
    workloads.check_pass(swapped)
    assert not any(r.ok for r in swapped)
    assert "iterative > collective > incremental" in swapped[0].problem
    slow = _fig5b_group([300.0, 60.0, 45.0])
    workloads.check_pass(slow)
    assert "limit 40 ms" in slow[0].problem


def test_failed_unit_counts_and_does_not_crash_the_run(registry, capsys, monkeypatch):
    def broken(unit):
        raise RuntimeError("simulated crash")

    monkeypatch.setitem(workloads._RUNNERS, "broken", broken)
    units = [SMALL_FIG5B, {"kind": "broken"}]
    passes = [child.record(*child.run_pass(units, registry)) for _ in range(2)]
    summary = child._summary(passes)
    assert summary["attempted"] == 4
    assert summary["failed"] == 2
    assert "simulated crash" in summary["problems"][0]
    summary["metrics"] = {}
    run.report("test", 1, summary)
    assert "ops_failed_ratio" in capsys.readouterr().out


def test_bulk_content_check_catches_a_lost_write(monkeypatch):
    from repro.oskern.memory import AddressSpace

    unit = dict(SMALL_BULK, mode="precopy", working_set="cold")
    assert workloads.run_unit(unit).ok
    write_range = AddressSpace.write_range
    dropped = []

    def lossy(self, area, count, offset=0):
        # The first write (a prewrite) never reaches the page store, but
        # the reference model still records it.
        if not dropped:
            dropped.append(offset)
            return None
        return write_range(self, area, count, offset)

    monkeypatch.setattr(AddressSpace, "write_range", lossy)
    bad = workloads.run_unit(unit)
    assert not bad.ok
    assert "content differs" in bad.problem


def test_best_pass_wall_takes_each_units_minimum():
    assert run.best_pass_wall([[1.0, 2.0], [0.5, 3.0], [2.0, 2.5]]) == 0.5 + 2.0
