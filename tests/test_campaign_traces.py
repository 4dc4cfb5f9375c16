"""The committed quick-campaign trace and series digests and how
check_digests.py gates on them."""

import hashlib
import sys
from pathlib import Path

from repro.scenarios.campaign import campaign_names

from .digest_checker import A, B, check_section, checker, keys, needs_committed_digests
from .digest_checker import use_baseline


def test_committed_file_covers_every_named_campaign():
    assert keys("campaign") == set(campaign_names())
    assert keys("series") == set(campaign_names())


def test_versions_key_names_python_minor_and_numpy():
    import numpy

    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    assert checker.versions_key() == f"{version}/numpy-{numpy.__version__}"


def test_check_flags_mismatch_and_missing_entries():
    expected = {"campaign/c1": A, "campaign/c2": B}
    ran = {"campaign"}
    good = {"campaign/c1": [A], "campaign/c2": [B]}
    assert checker.check(good, expected, ran) == []
    assert checker.check({**good, "campaign/c1": [B]}, expected, ran) == [
        f"campaign/c1: got {B}, committed {A}"
    ]
    assert checker.check({**good, "campaign/c3": [A]}, expected, ran) == [
        "campaign/c3: no committed digest"
    ]
    assert checker.check({"campaign/c1": [A]}, expected, ran) == [
        "campaign/c2: committed but not produced"
    ]


def test_main_exit_codes(tmp_path, monkeypatch):
    use_baseline(monkeypatch, tmp_path / "digests.json", {"campaign/c1": A})
    campaigns = {"c1": A}
    monkeypatch.setattr(checker, "SECTIONS", {"campaign": lambda: dict(campaigns)})
    assert checker.main([]) == 0
    campaigns["c1"] = B
    assert checker.main([]) == 1
    campaigns.update(c1=A, c2=A)
    assert checker.main([]) == 1
    campaigns.clear()
    assert checker.main([]) == 1


def test_trace_digests_hash_each_quick_trace(monkeypatch):
    # Stand-in campaigns: the digest is the SHA-256 of the trace file
    # run_campaign writes, one per named campaign.
    import repro.scenarios.campaign as campaign

    def fake_run(spec, *, quick, trace_path):
        assert quick
        Path(trace_path).write_text(f"trace of {spec}\n")

    monkeypatch.setattr(campaign, "campaign_names", lambda: ["x", "y"])
    monkeypatch.setattr(campaign, "get_campaign", lambda name: name.upper())
    monkeypatch.setattr(campaign, "run_campaign", fake_run)
    assert checker.campaign_digests() == {
        name: hashlib.sha256(f"trace of {name.upper()}\n".encode()).hexdigest()
        for name in ("x", "y")
    }


def test_series_digests_hash_each_quick_series_csv(monkeypatch):
    # Stand-in campaigns: the digest is the SHA-256 of the series CSV
    # run_campaign writes, from a run without tracing.
    import repro.scenarios.campaign as campaign

    def fake_run(spec, *, quick, series_path):
        assert quick
        Path(series_path).write_text(f"series of {spec}\n")

    monkeypatch.setattr(campaign, "campaign_names", lambda: ["x", "y"])
    monkeypatch.setattr(campaign, "get_campaign", lambda name: name.upper())
    monkeypatch.setattr(campaign, "run_campaign", fake_run)
    assert checker.series_digests() == {
        name: hashlib.sha256(f"series of {name.upper()}\n".encode()).hexdigest()
        for name in ("x", "y")
    }


@needs_committed_digests
def test_quick_campaign_traces_equal_the_committed_ones():
    check_section("campaign")


@needs_committed_digests
def test_quick_campaign_series_equal_the_committed_ones():
    check_section("series")
