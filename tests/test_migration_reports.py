"""The committed mode x compression report digests and how check_digests.py gates on them."""

import sys

from .digest_checker import A, B, check_section, checker, keys, needs_committed_digests
from .digest_checker import use_baseline


def test_committed_file_covers_every_mode_and_compression():
    assert keys("report") == {f"{m}/{c}" for m in checker.MODES for c in checker.COMPRESSIONS}


def test_versions_key_names_python_minor_and_numpy():
    import numpy

    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    assert checker.versions_key() == f"{version}/numpy-{numpy.__version__}"


def test_check_flags_mismatch_and_missing_entries():
    expected = {"report/precopy/none": A, "report/hybrid/xbzrle": B}
    ran = {"report"}
    good = {"report/precopy/none": [A], "report/hybrid/xbzrle": [B]}
    assert checker.check(good, expected, ran) == []
    assert checker.check({**good, "report/precopy/none": [B]}, expected, ran) == [
        f"report/precopy/none: got {B}, committed {A}"
    ]
    assert checker.check({**good, "report/postcopy/none": [A]}, expected, ran) == [
        "report/postcopy/none: no committed digest"
    ]
    assert checker.check({"report/precopy/none": [A]}, expected, ran) == [
        "report/hybrid/xbzrle: committed but not produced"
    ]
    # Reports are asked for only when the report section ran.
    assert checker.check({}, expected, {"campaign"}) == []


def test_main_exit_codes(tmp_path, monkeypatch):
    use_baseline(monkeypatch, tmp_path / "digests.json", {"report/precopy/none": A})
    reports = {"precopy/none": A}
    monkeypatch.setattr(checker, "SECTIONS", {"report": lambda: dict(reports)})
    assert checker.main([]) == 0
    reports["precopy/none"] = B
    assert checker.main([]) == 1
    use_baseline(
        monkeypatch, tmp_path / "digests.json", {"report/precopy/none": B}, key="2.7/numpy-0.1"
    )
    assert checker.main([]) == 1


def test_report_digest_covers_pid_and_session():
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
    assert checker.report_digest(report(3, "node1>node2#3", 2)) == base
    assert checker.report_digest(report(9, "node1>node2#3", 2)) != base
    assert checker.report_digest(report(3, "node1>node2#9", 2)) != base
    assert checker.report_digest(report(3, "node1>node2#3", 3)) != base


def test_report_does_not_depend_on_earlier_worlds():
    """A world numbers its own processes: the same case gives the same
    report, pid and session included, whatever ran before it."""
    import dataclasses

    from repro.scenarios import get_campaign, run_campaign

    first = dataclasses.asdict(checker.run_case("precopy", "none"))
    run_campaign(get_campaign("flash-crowd-node-crash"), quick=True)
    again = dataclasses.asdict(checker.run_case("precopy", "none"))
    assert again == first
    assert first["pid"] == 1000


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


@needs_committed_digests
def test_reports_equal_the_committed_ones():
    check_section("report")
