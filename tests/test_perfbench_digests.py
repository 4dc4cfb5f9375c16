"""The committed perfbench digests and how check_digests.py gates on them."""

import sys

from .digest_checker import A, B, checker, keys, perfbench_report, use_baseline


def test_committed_file_covers_every_workload_at_seeds_1_and_2():
    assert keys("perfbench") == {
        f"{w}/{s}" for w in ("fig5b-sockets", "campaign-suite", "bulk-memory") for s in ("1", "2")
    }


def test_versions_key_names_python_minor_and_numpy():
    import numpy

    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    assert checker.versions_key() == f"{version}/numpy-{numpy.__version__}"


def test_parse_pairs_headers_with_their_digests():
    text = (
        perfbench_report("fig5b-sockets", 1, A)
        + perfbench_report("bulk-memory", 1, A, B)
        + '{"correct": true}\n'
    )
    assert checker.parse_report(text) == {
        "perfbench/fig5b-sockets/1": [A],
        "perfbench/bulk-memory/1": [A, B],
    }


def test_check_flags_mismatch_disagreement_and_missing_entries():
    expected = {"perfbench/w/1": A, "perfbench/w/2": A, "perfbench/v/1": B}
    ran = {"perfbench/1"}
    good = {"perfbench/w/1": [A], "perfbench/v/1": [B]}
    assert checker.check(good, expected, ran) == []
    assert checker.check({**good, "perfbench/w/1": [B]}, expected, ran) == [
        f"perfbench/w/1: got {B}, committed {A}"
    ]
    # A workload whose passes printed more than one digest, or none.
    assert checker.check({**good, "perfbench/w/1": [A, B]}, expected, ran) == [
        f"perfbench/w/1: got {A} {B}, committed {A}"
    ]
    assert checker.check({**good, "perfbench/w/1": []}, expected, ran) == [
        f"perfbench/w/1: got none, committed {A}"
    ]
    assert checker.check({**good, "perfbench/u/1": [A]}, expected, ran) == [
        "perfbench/u/1: no committed digest"
    ]
    # Only the seeds that ran are asked for.
    assert checker.check({"perfbench/w/1": [A]}, expected, ran) == [
        "perfbench/v/1: committed but not produced"
    ]
    assert checker.check({"perfbench/w/2": [A]}, expected, {"perfbench/2"}) == []


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    def report(name, *digests):
        path = tmp_path / f"{name}.txt"
        path.write_text(perfbench_report("w", 1, *digests))
        return str(path)

    good, bad, split = report("good", A), report("bad", B), report("split", A, B)
    empty = tmp_path / "empty.txt"
    empty.write_text("nothing here\n")
    # perfbench/w/2 is not asked for: only seed 1's report is given.
    committed = {"perfbench/w/1": A, "perfbench/w/2": B}
    use_baseline(monkeypatch, tmp_path / "digests.json", committed)
    monkeypatch.setattr(checker, "SECTIONS", {})
    assert checker.main([good]) == 0
    assert checker.main([bad]) == 1
    assert checker.main([split]) == 1
    assert checker.main([str(empty)]) == 2
    use_baseline(monkeypatch, tmp_path / "digests.json", committed, key="2.7/numpy-0.1")
    assert checker.main([good]) == 1
    assert "no committed digests for" in capsys.readouterr().out
