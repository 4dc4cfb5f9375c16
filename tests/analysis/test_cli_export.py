"""Tests for the CLI and CSV exporters."""

import pytest

from repro.analysis import series_to_csv, sweep_to_csv
from repro.cli import build_parser, main
from repro.des import SeriesBundle


class TestParser:
    def test_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig4"])
        assert args.experiment == "fig4"
        assert not args.quick
        assert args.seed == 42

    def test_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["fig5b", "--quick", "--seed", "7", "--out", str(tmp_path)]
        )
        assert args.quick and args.seed == 7
        assert args.out == tmp_path

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])


class TestExport:
    def test_series_to_csv(self):
        b = SeriesBundle()
        for t in range(5):
            b.record("node1", t, 70 + t)
            b.record("node2", t, 75)
        csv = series_to_csv(b, n_points=5)
        lines = csv.strip().splitlines()
        assert lines[0] == "time,node1,node2"
        assert len(lines) == 6
        assert lines[1].startswith("0.000,70.000,75.000")

    def test_series_to_csv_empty(self):
        assert series_to_csv(SeriesBundle()).strip() == "time,"

    def test_sweep_to_csv(self):
        from repro.analysis import SweepConfig, run_freeze_sweep

        result = run_freeze_sweep(
            SweepConfig(conn_counts=(16,), strategies=("collective",), repetitions=1)
        )
        csv = sweep_to_csv(result)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("connections,strategy,")
        assert lines[1].startswith("16,collective,")


class TestMain:
    def test_fig5b_quick_end_to_end(self, capsys, tmp_path):
        rc = main(["fig5b", "--quick", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 5b" in out
        assert (tmp_path / "fig5bc_sweep.csv").exists()
        body = (tmp_path / "fig5bc_sweep.csv").read_text()
        assert "incremental-collective" in body

    def test_fig4_quick_end_to_end(self, capsys, tmp_path):
        rc = main(["fig4", "--quick", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        csv = (tmp_path / "fig4_timeline.csv").read_text()
        assert csv.startswith("time_s,burst_number,node")
        assert "destination" in csv
