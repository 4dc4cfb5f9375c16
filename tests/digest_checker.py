"""Shared by the digest tests: ``benchmarks/check_digests.py`` loaded as a
module, stand-in digests, and a check of one computed section."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "check_digests.py"
_spec = importlib.util.spec_from_file_location("check_digests", SCRIPT)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

A = "a" * 64
B = "b" * 64

#: The committed digests the tests read, for the versions CI pins them on.
COMMITTED = json.loads(checker.BASELINE.read_text())["3.11/numpy-2.4.6"]

#: Skips a test on versions with no committed digests.
needs_committed_digests = pytest.mark.skipif(
    checker.versions_key() not in json.loads(checker.BASELINE.read_text()),
    reason="no committed digests for these Python and numpy versions",
)

def check_section(section):
    """Computes one section and checks it against the committed digests."""
    expected = json.loads(checker.BASELINE.read_text())[checker.versions_key()]
    found = {f"{section}/{name}": [d] for name, d in checker.SECTIONS[section]().items()}
    problems = checker.check(found, expected, {section})
    assert not problems, "\n".join(problems)


def keys(section):
    """The committed keys of ``section``, without the section prefix."""
    prefix = f"{section}/"
    return {k[len(prefix):] for k in COMMITTED if k.startswith(prefix)}


def perfbench_report(workload, seed, *digests):
    """A ``perfbench/run.py`` stdout block for one workload."""
    lines = [f"== {workload} (seed {seed})", "  wall_s   1.0 s  (lower is better)"]
    lines += [f"  simulated-output digest {d}" for d in digests]
    return "\n".join(lines) + "\n"


def use_baseline(monkeypatch, path, committed, key=None):
    """Points the checker at a baseline file holding ``committed``."""
    path.write_text(json.dumps({key or checker.versions_key(): committed}))
    monkeypatch.setattr(checker, "BASELINE", path)
