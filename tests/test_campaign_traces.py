"""The committed quick-campaign trace digests and the script that gates on them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios.campaign import campaign_names

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "check_campaign_traces.py"
_spec = importlib.util.spec_from_file_location("check_campaign_traces", SCRIPT)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

A = "a" * 64
B = "b" * 64


def test_committed_file_covers_every_named_campaign():
    committed = json.loads(checker.BASELINE.read_text())
    digests = committed["3.11/numpy-2.4.6"]
    assert sorted(digests) == campaign_names()
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())


def test_versions_key_names_python_minor_and_numpy():
    import numpy

    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    assert checker.versions_key() == f"{version}/numpy-{numpy.__version__}"


def test_check_flags_mismatch_and_missing_entries():
    key = "3.11/numpy-2.4.6"
    committed = {key: {"c1": A, "c2": B}}
    assert checker.check({"c1": A, "c2": B}, committed, key) == []
    assert checker.check({"c1": B, "c2": B}, committed, key) == [
        f"c1: got {B}, committed {A}"
    ]
    assert checker.check({"c1": A, "c2": B, "c3": A}, committed, key) == [
        "c3: no committed digest"
    ]
    assert checker.check({"c1": A}, committed, key) == [
        "c2: committed but not a named campaign"
    ]
    assert checker.check({"c1": A}, committed, "3.11/numpy-9.9") == [
        "no committed trace digests for 3.11/numpy-9.9"
    ]


def test_main_exit_codes(tmp_path, monkeypatch):
    baseline = tmp_path / "digests.json"
    baseline.write_text(json.dumps({checker.versions_key(): {"c1": A}}))
    monkeypatch.setattr(checker, "BASELINE", baseline)
    monkeypatch.setattr(checker, "trace_digests", lambda: {"c1": A})
    assert checker.main() == 0
    monkeypatch.setattr(checker, "trace_digests", lambda: {"c1": B})
    assert checker.main() == 1
    baseline.write_text(json.dumps({"2.7/numpy-0.1": {"c1": B}}))
    assert checker.main() == 1


def test_trace_digests_hash_each_quick_trace(monkeypatch):
    # Stand-in campaigns: the digest is the SHA-256 of the trace file
    # run_campaign writes, one per named campaign.
    import hashlib

    import repro.scenarios.campaign as campaign

    def fake_run(spec, *, quick, trace_path):
        assert quick
        Path(trace_path).write_text(f"trace of {spec}\n")

    monkeypatch.setattr(campaign, "campaign_names", lambda: ["x", "y"])
    monkeypatch.setattr(campaign, "get_campaign", lambda name: name.upper())
    monkeypatch.setattr(campaign, "run_campaign", fake_run)
    assert checker.trace_digests() == {
        name: hashlib.sha256(f"trace of {name.upper()}\n".encode()).hexdigest()
        for name in ("x", "y")
    }


@pytest.mark.skipif(
    checker.versions_key() not in json.loads(checker.BASELINE.read_text()),
    reason="no committed trace digests for these Python and numpy versions",
)
def test_quick_campaign_traces_equal_the_committed_ones():
    # A fresh interpreter: trace ids come from process-wide counters, so
    # earlier tests in this process would shift them.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
