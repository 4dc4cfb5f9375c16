"""The substrate imports without the figure, campaign or dashboard code.

``repro`` loads its subpackages lazily, so a library user of the
simulation kernel pays only for what it imports.  Each check runs in a
fresh interpreter, since this test process has loaded everything.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
UPPER = ("repro.analysis", "repro.openarena", "repro.scenarios", "repro.obs.dash")


@pytest.mark.parametrize("module", ["repro.des", "repro.net", "repro.oskern"])
def test_substrate_does_not_load_upper_layers(module):
    probe = (
        f"import sys, {module}\n"
        f"upper = {UPPER!r}\n"
        "print(sorted(m for m in sys.modules if m.startswith(upper)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    ).stdout
    assert out.strip() == "[]"


def test_testing_helpers_load_no_world_above_the_migration_core():
    """``repro.testing`` builds migration worlds from the core alone; the
    writers' ``repro.scenarios`` is imported only when a writer starts."""
    upper = ("repro.scenarios", "repro.analysis", "repro.middleware", "repro.dve")
    probe = (
        "import sys, repro.testing\n"
        f"print(sorted(m for m in sys.modules if m.startswith({upper!r})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    ).stdout
    assert out.strip() == "[]"


def test_simulator_core_loads_only_the_tracer_and_metrics_of_obs():
    analysis = [
        f"repro.obs.{m}" for m in ("causal", "diff", "export", "perfetto", "samplers", "slo")
    ]
    probe = (
        "import sys, repro.des\n"
        f"print(sorted(m for m in sys.modules if m in {analysis!r}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    ).stdout
    assert out.strip() == "[]"


def test_obs_names_stay_reachable():
    import repro.obs as obs
    from repro.obs import Histogram, write_jsonl
    from repro.obs.export import write_jsonl as export_write_jsonl
    from repro.obs.metrics import Histogram as metrics_histogram

    assert Histogram is metrics_histogram
    assert write_jsonl is export_write_jsonl
    assert set(obs.__all__) <= set(dir(obs))
    assert all(getattr(obs, name) is not None for name in obs.__all__)
    with pytest.raises(AttributeError):
        obs.no_such_name


def test_package_attributes_stay_reachable():
    import repro
    from repro import core

    assert core is repro.core
    assert repro.analysis.run_fig4 is not None
    assert repro.build_cluster is repro.cluster.build_cluster
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError):
        repro.no_such_subpackage
