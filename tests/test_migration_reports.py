"""The committed mode x compression report digests and the script that gates on them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "check_migration_reports.py"
_spec = importlib.util.spec_from_file_location("check_migration_reports", SCRIPT)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

A = "a" * 64
B = "b" * 64
PAIRS = sorted(f"{m}/{c}" for m in checker.MODES for c in checker.COMPRESSIONS)


def test_committed_file_covers_every_mode_and_compression():
    committed = json.loads(checker.BASELINE.read_text())
    digests = committed["3.11/numpy-2.4.6"]
    assert sorted(digests) == PAIRS
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())


def test_versions_key_names_python_minor_and_numpy():
    import numpy

    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    assert checker.versions_key() == f"{version}/numpy-{numpy.__version__}"


def test_check_flags_mismatch_and_missing_entries():
    key = "3.11/numpy-2.4.6"
    committed = {key: {"precopy/none": A, "hybrid/xbzrle": B}}
    assert checker.check({"precopy/none": A, "hybrid/xbzrle": B}, committed, key) == []
    assert checker.check({"precopy/none": B, "hybrid/xbzrle": B}, committed, key) == [
        f"precopy/none: got {B}, committed {A}"
    ]
    found = {"precopy/none": A, "hybrid/xbzrle": B, "postcopy/none": A}
    assert checker.check(found, committed, key) == ["postcopy/none: no committed digest"]
    assert checker.check({"precopy/none": A}, committed, key) == [
        "hybrid/xbzrle: committed but not run"
    ]
    assert checker.check({"precopy/none": A}, committed, "3.11/numpy-9.9") == [
        "no committed report digests for 3.11/numpy-9.9"
    ]


def test_main_exit_codes(tmp_path, monkeypatch):
    baseline = tmp_path / "digests.json"
    baseline.write_text(json.dumps({checker.versions_key(): {"precopy/none": A}}))
    monkeypatch.setattr(checker, "BASELINE", baseline)
    monkeypatch.setattr(checker, "report_digests", lambda: {"precopy/none": A})
    assert checker.main() == 0
    monkeypatch.setattr(checker, "report_digests", lambda: {"precopy/none": B})
    assert checker.main() == 1
    baseline.write_text(json.dumps({"2.7/numpy-0.1": {"precopy/none": B}}))
    assert checker.main() == 1


def test_report_digest_leaves_out_pid_and_session():
    from repro.core.stats import MigrationReport

    def report(pid, session, rounds):
        return MigrationReport(
            strategy="collective",
            source="node1",
            destination="node2",
            pid=pid,
            process_name="p",
            precopy_rounds=rounds,
            session=session,
        )

    base = checker.report_digest(report(3, "node1>node2#3", 2))
    assert checker.report_digest(report(9, "node1>node2#9", 2)) == base
    assert checker.report_digest(report(3, "node1>node2#3", 3)) != base


def test_every_case_migrates_and_exercises_the_compressor(monkeypatch):
    """Each run succeeds, and the compressed runs see zero pages and, under
    XBZRLE, deltas that pay — the paths the digests are meant to pin."""
    from repro.core import compress

    seen = []
    original = compress.PageCompressor.compress

    def spy(self, pages):
        out = original(self, pages)
        seen.append(self)
        return out

    monkeypatch.setattr(compress.PageCompressor, "compress", spy)
    for mode in checker.MODES:
        for compression in checker.COMPRESSIONS:
            seen.clear()
            report = checker.run_case(mode, compression)
            assert report.success, (mode, compression, report.error)
            if compression == "none":
                assert not seen
                continue
            stats = seen[-1].stats
            assert stats.zero_pages > 0, (mode, compression)
            if compression == "xbzrle" and mode != "postcopy":
                assert stats.delta_pages > 0, (mode, compression)


@pytest.mark.skipif(
    checker.versions_key() not in json.loads(checker.BASELINE.read_text()),
    reason="no committed report digests for these Python and numpy versions",
)
def test_reports_equal_the_committed_ones():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
