"""The committed simulated-output digests as a whole, and the figure section.

Each other section has its own test file: test_campaign_traces.py,
test_migration_reports.py and test_perfbench_digests.py.
"""

from repro.scenarios.campaign import campaign_names

from .digest_checker import A, B, COMMITTED, check_section, checker, needs_committed_digests
from .digest_checker import perfbench_report, use_baseline


def test_committed_file_covers_every_result():
    expected = {f"{section}/{name}" for section in ("campaign", "series") for name in campaign_names()}
    expected |= {f"report/{m}/{c}" for m in checker.MODES for c in checker.COMPRESSIONS}
    expected |= {"figure/fig4-quick", "figure/fig5bc-quick"}
    expected |= {
        f"perfbench/{w}/{s}"
        for w in ("fig5b-sockets", "campaign-suite", "bulk-memory")
        for s in ("1", "2")
    }
    assert set(COMMITTED) == expected
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in COMMITTED.values())


def test_main_checks_computed_sections_and_given_reports_together(tmp_path, monkeypatch):
    report = tmp_path / "seed1.txt"
    report.write_text(perfbench_report("w", 1, A))
    committed = {"perfbench/w/1": A, "perfbench/w/2": B, "figure/f": B}
    use_baseline(monkeypatch, tmp_path / "digests.json", committed)
    figures = {"f": B}
    monkeypatch.setattr(checker, "SECTIONS", {"figure": lambda: dict(figures)})
    assert checker.main([str(report)]) == 0
    assert checker.main([]) == 0
    figures["f"] = A
    assert checker.main([str(report)]) == 1


@needs_committed_digests
def test_figure_exports_equal_the_committed_ones():
    check_section("figure")
