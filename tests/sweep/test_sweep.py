"""Sweep spec parsing, matrix expansion, pool execution and merge."""

import json

import pytest

from repro.scenarios.campaign import get_campaign
from repro.scenarios.dsl import ScenarioParseError
from repro.sweep import (
    NAMED_SWEEPS,
    get_sweep,
    parse_sweep,
    read_sweep,
    render_sweep_table,
    run_sweep,
    sweep_names,
    validate_sweep,
    write_sweep,
)
from repro.sweep.cli import main
from repro.sweep.spec import parse_strategy_value

MINI_INLINE = """\
[sweep]
name = mini

[matrix]
strategy = paper-threshold | workload-balance-to-average:band=22
seed = 42

[campaign]
name = mini-base
quick_duration = 30

[scenario]
clients 40
duration 60
tick 1
grid 2x2
nodes 2
server cpu_per_client=0.006 cpu_base=0.02 pages=16

[slo]
scenario.ticks_total >= 1
"""


class TestSpec:
    def test_named_sweeps_parse_and_expand(self):
        for name in sweep_names():
            spec = get_sweep(name)
            runs = spec.runs()
            assert len(runs) == len(spec)
            assert len({r.run_id for r in runs}) == len(runs)

    def test_diurnal_trio_expansion(self):
        spec = get_sweep("diurnal-trio")
        ids = [r.run_id for r in spec.runs()]
        assert ids == [
            "diurnal-paper+s42",
            "diurnal-cycle-aware+s42",
            "diurnal-workload-balance+s42",
        ]
        for run in spec.runs():
            get_campaign(run.campaign)  # every axis value is a real campaign

    def test_inline_base_with_axes(self):
        spec = parse_sweep(MINI_INLINE)
        assert spec.name == "mini"
        assert spec.base_text is not None
        runs = spec.runs()
        assert [r.run_id for r in runs] == [
            "paper-threshold+s42",
            "workload-balance-to-average+s42",
        ]
        assert runs[1].strategy == "workload-balance-to-average:band=22"

    def test_strategy_value_params(self):
        assert parse_strategy_value("cycle-aware") == ("cycle-aware", {})
        name, params = parse_strategy_value("cycle-aware:min_cycles=2.0,tag=x")
        assert name == "cycle-aware"
        assert params == {"min_cycles": 2.0, "tag": "x"}

    def test_faults_axis_none_means_empty_plan(self):
        spec = get_sweep("zipf-strategy-grid")
        by_id = {r.run_id: r for r in spec.runs()}
        f0 = [r for r in spec.runs() if r.run_id.endswith("+f0")][0]
        f1 = [r for r in spec.runs() if r.run_id.endswith("+f1")][0]
        assert f0.faults == ""  # "none" -> replace with an empty plan
        assert "loss link" in f1.faults
        assert len(by_id) == 4

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[matrix]\nseed = 42\n", "needs a \\[sweep\\]"),
            ("[sweep]\nname = x\n", "needs a \\[matrix\\]"),
            ("[sweep]\nname = x\n[matrix]\nseed = 42\n", "campaign axis or inline"),
            ("[sweep]\nname = x\n[matrix]\nbogus = 1\n", "unknown matrix axis"),
            ("[sweep]\nname = x\n[matrix]\nseed = nope\n", "seed values"),
            ("[sweep]\nname = x\n[matrix]\ncampaign = no-such\n", "unknown campaign"),
            (
                "[sweep]\nname = x\n[matrix]\ncampaign = quiet-baseline\n"
                "[scenario]\nclients 10\nduration 10\n",
                "not both",
            ),
        ],
    )
    def test_parse_errors(self, text, match):
        with pytest.raises(ScenarioParseError, match=match):
            parse_sweep(text)


class TestMergeDoc:
    def _doc(self, tmp_path):
        spec = parse_sweep(MINI_INLINE)
        return run_sweep(spec, jobs=1, quick=True, out_dir=tmp_path)

    def test_run_merge_validate_roundtrip(self, tmp_path):
        doc = self._doc(tmp_path)
        assert doc["schema"] == "repro-sweep/1"
        assert doc["jobs"] == 1
        assert len(doc["runs"]) == 2
        for run in doc["runs"]:
            assert "error" not in run, run
            assert run["metrics"]["scenario.ticks_total"] >= 1
            assert run["wall_s"] > 0
        assert doc["serial_wall_s"] == pytest.approx(
            sum(r["wall_s"] for r in doc["runs"])
        )
        path = write_sweep(tmp_path, doc)
        assert read_sweep(path) == doc

    def test_per_run_isolated_outputs(self, tmp_path):
        doc = self._doc(tmp_path)
        for run in doc["runs"]:
            run_dir = tmp_path / "runs" / run["run_id"]
            assert (run_dir / "trace.jsonl").exists()
            assert (run_dir / "series.csv").exists()
            assert (run_dir / "BENCH_campaign_mini-base.json").exists()

    def test_strategy_override_actually_applies(self, tmp_path):
        doc = self._doc(tmp_path)
        benches = [
            json.loads(
                (tmp_path / "runs" / run["run_id"] / "BENCH_campaign_mini-base.json").read_text()
            )
            for run in doc["runs"]
        ]
        assert {b["params"]["strategy"] for b in benches} == {
            "paper-threshold",
            "workload-balance-to-average",
        }

    def test_pool_matches_serial(self, tmp_path):
        spec = parse_sweep(MINI_INLINE)
        serial = run_sweep(spec, jobs=1, quick=True, out_dir=tmp_path / "serial")
        pooled = run_sweep(spec, jobs=2, quick=True, out_dir=tmp_path / "pooled")
        assert pooled["jobs"] == 2
        strip = lambda doc: [  # noqa: E731
            {k: r[k] for k in ("run_id", "params", "metrics", "slos_passed")}
            for r in doc["runs"]
        ]
        assert strip(pooled) == strip(serial)

    def test_validate_rejects_bad_docs(self, tmp_path):
        doc = self._doc(tmp_path)
        for mutate in (
            lambda d: d.pop("schema"),
            lambda d: d.update(schema="repro-sweep/9"),
            lambda d: d.pop("serial_wall_s"),
            lambda d: d.update(runs=[]),
            lambda d: d["runs"][0].pop("wall_s"),
            lambda d: d["runs"].append(dict(d["runs"][0])),
        ):
            bad = json.loads(json.dumps(doc))
            mutate(bad)
            with pytest.raises(ValueError):
                validate_sweep(bad)

    def test_worker_error_becomes_run_entry(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("kaput")

        monkeypatch.setattr("repro.scenarios.campaign.run_campaign", boom)
        spec = parse_sweep(MINI_INLINE)
        doc = run_sweep(spec, jobs=1, quick=True, out_dir=tmp_path)
        assert all("RuntimeError: kaput" in r["error"] for r in doc["runs"])
        validate_sweep(doc)

    def test_render_table(self, tmp_path):
        doc = self._doc(tmp_path)
        table = render_sweep_table(doc)
        assert "Sweep mini" in table
        for run in doc["runs"]:
            assert run["run_id"] in table


class TestCLI:
    def test_list_and_describe(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in NAMED_SWEEPS:
            assert name in out
        assert main(["describe", "--name", "diurnal-trio"]) == 0
        assert "diurnal-cycle-aware+s42" in capsys.readouterr().out

    def test_run_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "mini.sweep"
        spec_path.write_text(MINI_INLINE)
        out_dir = tmp_path / "out"
        rc = main(["run", str(spec_path), "--quick", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        merged = out_dir / "SWEEP_mini.json"
        assert merged.exists()
        validate_sweep(json.loads(merged.read_text()))
        assert "Sweep mini" in out

    def test_missing_spec_exits_2(self, capsys):
        assert main(["run", "/no/such/spec.sweep"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_name_exits_2(self, capsys):
        assert main(["run", "--name", "no-such-sweep"]) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sweep"
        bad.write_text("[sweep]\nname = x\n[matrix]\nbogus = 1\n")
        assert main(["run", str(bad)]) == 2
        assert "unknown matrix axis" in capsys.readouterr().err

    def test_slo_failure_exits_1_unless_ungated(self, tmp_path, capsys):
        text = MINI_INLINE.replace(
            "scenario.ticks_total >= 1", "scenario.ticks_total >= 999999"
        )
        spec_path = tmp_path / "failing.sweep"
        spec_path.write_text(text)
        assert main(["run", str(spec_path), "--quick", "--out", str(tmp_path / "a")]) == 1
        assert "SLO FAIL" in capsys.readouterr().err
        assert (
            main(
                [
                    "run",
                    str(spec_path),
                    "--quick",
                    "--no-slo-gate",
                    "--out",
                    str(tmp_path / "b"),
                ]
            )
            == 0
        )


class TestDashPanel:
    def test_dash_renders_sweep_panel(self, tmp_path, capsys):
        from repro.obs.dash import main as dash_main

        spec = parse_sweep(MINI_INLINE)
        doc = run_sweep(spec, jobs=1, quick=True, out_dir=tmp_path)
        path = write_sweep(tmp_path, doc)
        assert dash_main(["--sweep", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Sweep mini" in out
        assert "paper-threshold+s42" in out

    def test_dash_rejects_bad_sweep_file(self, tmp_path, capsys):
        from repro.obs.dash import main as dash_main

        assert dash_main(["--sweep", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "SWEEP_bad.json"
        bad.write_text("{}")
        assert dash_main(["--sweep", str(bad)]) == 2
        assert "not a repro-sweep/1" in capsys.readouterr().err
