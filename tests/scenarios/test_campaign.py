"""Campaigns: the file format, the standing suite, end-to-end runs with
BENCH documents, the CLI exit-code contract, and seeded determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.bench import validate_bench
from repro.scenarios import (
    ScenarioParseError,
    campaign_names,
    get_campaign,
    parse_campaign,
    run_campaign,
)
from repro.scenarios.cli import main as campaign_main

MINIMAL = """\
[campaign]
name = tiny
seed = 7
strategy = cycle-aware
strategy_params = min_cycles=1.5
calm_down = 3

[scenario]
clients 40
duration 10
grid 2x4
nodes 4

[faults]
t=5 stall node node2 duration=1

[slo]
scenario.achieved_ratio >= 0.5
"""


class TestParse:
    def test_minimal_document(self):
        c = parse_campaign(MINIMAL)
        assert c.name == "tiny"
        assert c.seed == 7
        assert c.strategy == "cycle-aware"
        assert c.strategy_params == {"min_cycles": 1.5}
        assert c.calm_down == 3.0
        assert c.scenario.clients == 40
        assert len(c.faults) == 1
        assert c.slos == ["scenario.achieved_ratio >= 0.5"]

    def test_describe_round_trips(self):
        c = parse_campaign(MINIMAL)
        text = c.describe()
        again = parse_campaign(text)
        assert again.describe() == text
        assert again.scenario == c.scenario
        assert again.strategy_params == c.strategy_params

    @pytest.mark.parametrize(
        "doc,token,reason",
        [
            ("clients 10", "clients", "before any [section]"),
            ("[mystery]\nx = 1", "mystery", "unknown section"),
            ("[campaign]\nname tiny", "name tiny", "key = value"),
            ("[campaign]\nname = x\nspeed = 9", "speed", "unknown campaign key"),
            ("[campaign]\nname = x\nseed = soon", "soon", "bad value"),
            ("[campaign]\nname = x\nstrategy_params = fast", "fast", "key=value"),
            ("[campaign]\nseed = 1\n[scenario]\nclients 1", "name", "needs a 'name"),
            ("[campaign]\nname = x", "scenario", "needs a [scenario]"),
        ],
    )
    def test_malformed_campaigns(self, doc, token, reason):
        with pytest.raises(ScenarioParseError) as err:
            parse_campaign(doc, path="c.campaign")
        assert str(err.value).startswith("c.campaign:")
        assert err.value.token == token
        assert reason in str(err.value)

    def test_errors_in_sections_keep_document_line_numbers(self):
        doc = "[campaign]\nname = x\n\n[scenario]\nclients 10\nload warp\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_campaign(doc, path="c.campaign")
        assert err.value.lineno == 6
        doc = "[campaign]\nname = x\n\n[scenario]\nclients 10\n\n[faults]\nt=x boom\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_campaign(doc, path="c.campaign")
        assert err.value.lineno == 8
        doc = "[campaign]\nname = x\n\n[scenario]\nclients 10\n\n[slo]\nfoo ~= 1\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_campaign(doc, path="c.campaign")
        assert err.value.lineno == 8


class TestStandingSuite:
    def test_every_named_campaign_parses_and_round_trips(self):
        assert len(campaign_names()) >= 12
        for name in campaign_names():
            c = get_campaign(name)
            assert c.name == name
            assert c.slos, f"{name} must gate on at least one SLO"
            text = c.describe()
            assert parse_campaign(text).describe() == text

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="quiet-baseline"):
            get_campaign("nope")

    def test_suite_covers_fault_and_strategy_space(self):
        campaigns = [get_campaign(n) for n in campaign_names()]
        kinds = {f.kind for c in campaigns for f in c.faults}
        assert {"crash", "stall", "loss", "partition"} <= kinds
        strategies = {c.strategy for c in campaigns}
        assert {
            "paper-threshold", "cycle-aware", "workload-balance-to-average"
        } <= strategies
        assert any(c.mode == "postcopy" for c in campaigns)


class TestRun:
    def test_quiet_baseline_passes_and_benches(self, tmp_path):
        result = run_campaign(get_campaign("quiet-baseline"), quick=True)
        assert result.passed
        assert result.values["campaign.migrations"] == 0
        assert result.values["scenario.achieved_ratio"] >= 0.999
        doc = validate_bench(result.bench_doc())
        assert doc["name"] == "campaign_quiet-baseline"
        assert doc["quick"] is True
        assert doc["slos"]["passed"] is True
        assert doc["metrics"]["campaign.degradation_node_s"]["direction"] == "lower"
        assert "campaign quiet-baseline" in result.render()

    def test_crash_campaign_records_the_gap(self):
        result = run_campaign(get_campaign("flash-crowd-node-crash"), quick=True)
        assert result.passed
        assert 0.6 <= result.values["scenario.achieved_ratio"] < 0.999

    def test_seed_override_changes_nothing_structural(self):
        a = run_campaign(get_campaign("quiet-baseline"), quick=True, seed=1)
        b = run_campaign(get_campaign("quiet-baseline"), quick=True, seed=2)
        assert a.seed == 1 and b.seed == 2
        assert a.passed and b.passed


class TestCLI:
    def test_list(self, capsys):
        assert campaign_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in campaign_names():
            assert name in out

    def test_describe_name_and_file(self, tmp_path, capsys):
        assert campaign_main(["describe", "quiet-baseline"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "mine.campaign"
        path.write_text(text)
        assert campaign_main(["describe", str(path)]) == 0
        assert capsys.readouterr().out == text

    def test_run_writes_artifacts(self, tmp_path, capsys):
        rc = campaign_main(
            ["run", "quiet-baseline", "--quick", "--trace", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "BENCH_campaign_quiet-baseline.json").exists()
        assert (tmp_path / "campaign_quiet-baseline.trace.jsonl").exists()
        assert (tmp_path / "campaign_quiet-baseline.series.csv").exists()
        out = capsys.readouterr().out
        assert "scenario.achieved_ratio" in out

    def test_failed_slo_exits_1(self, tmp_path):
        path = tmp_path / "strict.campaign"
        path.write_text(
            "[campaign]\nname = strict\nquick_duration = 10\n\n"
            "[scenario]\nclients 40\nduration 20\ngrid 2x4\nnodes 4\n\n"
            "[slo]\nscenario.joins_total >= 999999\n"
        )
        assert campaign_main(["run", str(path), "--quick"]) == 1

    def test_parse_error_exits_3(self, tmp_path, capsys):
        path = tmp_path / "broken.campaign"
        path.write_text("[campaign]\nname = broken\n\n[scenario]\nload warp\n")
        assert campaign_main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:5:warp:" in err

    def test_unknown_ref_exits_3(self, capsys):
        assert campaign_main(["run", "no-such-campaign"]) == 3
        assert "neither a named campaign" in capsys.readouterr().err


class TestDeterminism:
    """Same seed => byte-identical traces, whatever ran before in the
    same interpreter, and across interpreters."""

    SCRIPT = """\
import sys
from repro.scenarios import get_campaign, run_campaign
result = run_campaign(
    get_campaign("flash-crowd-node-crash"), quick=True, trace_path=sys.argv[1]
)
print(round(result.values["scenario.achieved_ratio"], 9))
"""

    def _run(self, tmp_path, tag):
        trace = tmp_path / f"{tag}.jsonl"
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(trace)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        return trace.read_bytes(), proc.stdout

    def test_trace_does_not_depend_on_earlier_worlds(self, tmp_path):
        """A world numbers its own processes, so pids and session ids in
        the trace are the same when three other worlds ran before it."""
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        spec = get_campaign("flash-crowd-node-crash")
        run_campaign(spec, quick=True, trace_path=first)
        for name in ("quiet-baseline", "hotset-postcopy", "diurnal-paper"):
            run_campaign(get_campaign(name), quick=True)
        run_campaign(spec, quick=True, trace_path=again)
        assert again.read_bytes() == first.read_bytes()
        assert b'"pid"' in first.read_bytes()

    def test_same_seed_byte_identical_trace(self, tmp_path):
        """In fresh interpreters: each has its own ``PYTHONHASHSEED``, so
        this guards against a trace that depends on string-hash order."""
        trace_a, out_a = self._run(tmp_path, "a")
        trace_b, out_b = self._run(tmp_path, "b")
        assert trace_a == trace_b
        assert out_a == out_b
        assert trace_a.count(b"\n") > 100
