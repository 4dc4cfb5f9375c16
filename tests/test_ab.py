"""The verdicts of ``benchmarks/ab.py`` on canned paired samples."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00]


def test_a_clear_gain_wins_every_pair_beyond_the_spread():
    s = ab.summarize(BASE, [0.85, 0.86, 0.84, 0.85, 0.86, 0.84], "lower", 0.25)
    assert s["verdict"] == "better"
    assert s["wins"] == 6 and s["pairs"] == 6
    assert s["ratio"] == pytest.approx(0.85)
    assert s["base_median"] == 1.0
    assert not s["worse_every_pair"]


def test_a_gain_inside_the_spread_is_the_same():
    s = ab.summarize(BASE, [0.995, 1.01, 0.97, 1.0, 0.98, 0.99], "lower", 0.25)
    assert s["wins"] == 6
    assert s["verdict"] == "same"


def test_a_gain_with_two_lost_pairs_in_six_is_the_same():
    s = ab.summarize(BASE, [0.8, 0.8, 0.8, 0.8, 1.3, 1.3], "lower", 0.25)
    assert s["wins"] == 4
    assert s["verdict"] == "same"


def test_a_regression_past_the_bound_in_every_pair():
    s = ab.summarize(BASE, [1.4, 1.3, 1.35, 1.5, 1.3, 1.4], "lower", 0.25)
    assert s["verdict"] == "worse"
    assert s["worse_every_pair"]


def test_one_slow_pair_does_not_fail_the_gate():
    s = ab.summarize([1.0, 1.0], [1.6, 1.0], "lower", 0.25)
    assert s["verdict"] == "worse"
    assert not s["worse_every_pair"]


def test_higher_is_better_metrics_turn_the_comparison_round():
    rate = [3300.0, 3350.0, 3320.0, 3310.0, 3340.0, 3330.0]
    s = ab.summarize(rate, [r * 1.15 for r in rate], "higher", 0.25)
    assert s["verdict"] == "better" and s["wins"] == 6
    s = ab.summarize(rate, [r * 0.7 for r in rate], "higher", 0.25)
    assert s["verdict"] == "worse" and s["worse_every_pair"]


def test_single_pair_has_no_spread():
    s = ab.summarize([1.0], [0.9], "lower", 0.25)
    assert s["base_iqr"] == 0.0
    assert s["verdict"] == "better"


def test_samples_must_pair_up():
    with pytest.raises(ValueError):
        ab.summarize([1.0, 1.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        ab.summarize([], [], "lower", 0.25)


def test_bounds_come_from_the_benchmark_declaration():
    limits = ab.bounds()
    assert limits["wall_s"] == ("lower", 0.25)
    assert limits["sim_s_per_wall_s"] == ("higher", 0.25)
    assert set(limits) == {"wall_s", "setup_s", "sim_s_per_wall_s", "peak_rss_mb"}
