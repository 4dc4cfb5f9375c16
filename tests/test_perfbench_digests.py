"""The committed perfbench digests and the script that gates on them."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "check_perfbench_digests.py"
_spec = importlib.util.spec_from_file_location("check_perfbench_digests", SCRIPT)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

A = "a" * 64
B = "b" * 64


def _report(workload, seed, *digests):
    lines = [f"== {workload} (seed {seed})", "  wall_s   1.0 s  (lower is better)"]
    lines += [f"  simulated-output digest {d}" for d in digests]
    return "\n".join(lines) + "\n"


def test_committed_file_covers_every_workload_at_seeds_1_and_2():
    committed = json.loads(checker.BASELINE.read_text())
    workloads = committed["3.11/numpy-2.4.6"]
    assert set(workloads) == {"fig5b-sockets", "campaign-suite", "bulk-memory"}
    for seeds in workloads.values():
        assert set(seeds) == {"1", "2"}
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in seeds.values())


def test_versions_key_names_python_minor_and_numpy():
    import numpy

    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    assert checker.versions_key() == f"{version}/numpy-{numpy.__version__}"


def test_parse_pairs_headers_with_their_digests():
    text = _report("fig5b-sockets", 1, A) + _report("bulk-memory", 1, A, B) + '{"correct": true}\n'
    assert checker.parse_report(text) == {
        ("fig5b-sockets", "1"): [A],
        ("bulk-memory", "1"): [A, B],
    }


def test_check_flags_mismatch_disagreement_and_missing_entries():
    key = "3.11/numpy-2.4.6"
    committed = {key: {"w": {"1": A, "2": A}, "v": {"1": B}}}
    assert checker.check({("w", "1"): [A], ("v", "1"): [B]}, committed, key) == []
    assert checker.check({("w", "1"): [B], ("v", "1"): [B]}, committed, key) == [
        f"w seed 1: got {B}, committed {A}"
    ]
    assert checker.check({("w", "2"): [A, B]}, committed, key)
    assert checker.check({("w", "3"): [A]}, committed, key) == ["w seed 3: no committed digest"]
    # A committed workload that a seed which ran did not report (renamed
    # or dropped from perfbench) fails; seeds that did not run are not asked for.
    assert checker.check({("w", "1"): [A]}, committed, key) == ["v seed 1: committed but not in the reports"]
    assert checker.check({("w", "2"): [A]}, committed, key) == []
    assert checker.check({("w", "1"): [A]}, committed, "3.11/numpy-9.9") == [
        "no committed digests for 3.11/numpy-9.9"
    ]


def test_main_exit_codes(tmp_path, monkeypatch):
    good = tmp_path / "good.txt"
    good.write_text(_report("w", 1, A))
    bad = tmp_path / "bad.txt"
    bad.write_text(_report("w", 1, B))
    empty = tmp_path / "empty.txt"
    empty.write_text("nothing here\n")
    baseline = tmp_path / "digests.json"
    baseline.write_text(json.dumps({checker.versions_key(): {"w": {"1": A}}}))
    monkeypatch.setattr(checker, "BASELINE", baseline)
    assert checker.main([str(good)]) == 0
    assert checker.main([str(bad)]) == 1
    assert checker.main([str(empty)]) == 2
    baseline.write_text(json.dumps({"2.7/numpy-0.1": {"w": {"1": A}}}))
    assert checker.main([str(good)]) == 1
