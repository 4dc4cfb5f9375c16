"""Check every pinned simulated result against its committed digest.

    python3 perfbench/run.py --seconds 5 --seed 1 > seed1.txt
    python3 benchmarks/check_digests.py [seed1.txt seed2.txt ...]

``baselines/digests.json`` is keyed by the versions the digests depend
on (``<python minor>/numpy-<version>``: the simulator draws from numpy's
random distributions, which may change between numpy releases), then
holds one SHA-256 per result:

* ``campaign/<name>``: each named campaign's quick-mode JSONL trace.  A
  trace records every decision, migration and fault of a run, so an
  equal digest means the run is byte-identical.
* ``series/<name>``: each named campaign's quick-mode per-tick
  ``scenario.*`` series, as the CSV ``repro-campaign --out`` writes and
  ``repro-dash`` reads, from a run without tracing.
* ``report/<mode>/<compression>``: the report of one small migration
  for every ``precopy``/``postcopy``/``hybrid`` x
  ``none``/``zero-page``/``xbzrle`` pair.
* ``figure/fig4-quick``, ``figure/fig5bc-quick``: the CSV export of
  ``repro-experiments fig4 --quick`` and ``fig5b --quick`` at the CLI's
  default seed.
* ``perfbench/<workload>/<seed>``: the simulated-output digest
  perfbench prints, read from the stdout files given as arguments.

The script always computes the first four sections.  Every world
numbers its own processes, so no digest depends on what ran before it
in the same interpreter.  Exits 1 when a digest differs, when a
perfbench workload printed more than one digest (its passes disagreed),
when a result has no committed digest, when a committed result is
missing from a section that ran (for perfbench, from a seed that ran),
or when nothing is committed for the running versions; exits 2 when
the given reports hold no perfbench workload.  A deliberate re-baseline edits the
JSON file and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The checkout's simulator, so the script also runs without an install.
sys.path.insert(0, str(ROOT / "src"))

BASELINE = ROOT / "benchmarks" / "baselines" / "digests.json"

_HEADER = re.compile(r"^== (\S+) \(seed (\d+)\)$")
_DIGEST = re.compile(r"^\s+simulated-output digest ([0-9a-f]{64})$")

MODES = ("precopy", "postcopy", "hybrid")
COMPRESSIONS = ("none", "zero-page", "xbzrle")
#: Address-space size of the migrating process, in pages.
PAGES = 2048
#: Ranges written before the migration; the rest stay zero pages.
PREWRITE = ((0, 300), (100, 50), (900, 400), (1500, 8))


def versions_key() -> str:
    """The key of the running versions in the committed file."""
    import numpy

    return f"{sys.version_info.major}.{sys.version_info.minor}/numpy-{numpy.__version__}"


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def parse_report(text: str) -> dict[str, list[str]]:
    """``perfbench/<workload>/<seed> -> [digest, ...]`` from one perfbench report."""
    found: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            current = "perfbench/{}/{}".format(*header.groups())
            found.setdefault(current, [])
            continue
        digest = _DIGEST.match(line)
        if digest and current is not None:
            found[current].append(digest.group(1))
    return found


def _quick_campaign_digests(option: str, suffix: str) -> dict[str, str]:
    """``campaign name -> SHA-256`` of the file each named campaign's
    quick run writes through the ``run_campaign`` keyword ``option``."""
    from repro.scenarios.campaign import campaign_names, get_campaign, run_campaign

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in campaign_names():
            path = Path(tmp) / f"{name}.{suffix}"
            run_campaign(get_campaign(name), quick=True, **{option: path})
            digests[name] = _sha256(path.read_bytes())
    return digests


def campaign_digests() -> dict[str, str]:
    """``campaign name -> SHA-256`` of its quick-mode trace."""
    return _quick_campaign_digests("trace_path", "trace.jsonl")


def series_digests() -> dict[str, str]:
    """``campaign name -> SHA-256`` of its quick-mode series CSV."""
    return _quick_campaign_digests("series_path", "series.csv")


def run_case(mode: str, compression: str):
    """One migration in ``mode`` under ``compression``; its report.  The
    process re-dirties a hot set slowly enough that XBZRLE deltas pay,
    and starts with unwritten pages, so every compressor branch (zero
    page, paying delta, full page) feeds the report's timings and bytes."""
    from repro.core import LiveMigrationConfig
    from repro.scenarios.workload import HotSet
    from repro.testing import MigrationWorld, WorldSpec

    world = MigrationWorld(
        WorldSpec(
            name="reports0", seed=5, pages=PAGES, prewrite=PREWRITE,
            writer=HotSet(pages=96, interval=0.003, offset=850), warmup=0.1,
        )
    )
    world.warm()
    report = world.migrate(LiveMigrationConfig(mode=mode, compression=compression))
    world.close()
    return report


def report_digest(report) -> str:
    """SHA-256 of the report's fields.  JSON writes floats with
    ``repr``, so the digest sees every bit."""
    return _sha256(json.dumps(dataclasses.asdict(report), sort_keys=True))


def report_digests() -> dict[str, str]:
    """``<mode>/<compression> -> SHA-256`` of its report."""
    return {
        f"{mode}/{compression}": report_digest(run_case(mode, compression))
        for mode in MODES
        for compression in COMPRESSIONS
    }


def figure_digests() -> dict[str, str]:
    """SHA-256 of the CSV exports of ``repro-experiments fig4 --quick``
    and ``fig5b --quick``, built from the CLI's own configs."""
    from repro.analysis import run_fig4, run_freeze_sweep
    from repro.analysis.export import fig4_to_csv, sweep_to_csv
    from repro.cli import _fig4_config, _sweep_config, build_parser

    args = build_parser().parse_args(["fig5b", "--quick"])
    return {
        "fig4-quick": _sha256(fig4_to_csv(run_fig4(_fig4_config(args)))),
        "fig5bc-quick": _sha256(sweep_to_csv(run_freeze_sweep(_sweep_config(args)))),
    }


#: The computed sections.
SECTIONS = {
    "campaign": campaign_digests,
    "series": series_digests,
    "report": report_digests,
    "figure": figure_digests,
}


def producer(key: str) -> str:
    """The run that yields ``key``: its section, and for perfbench also
    its seed, since only the seeds whose reports were given ran."""
    section, *_, last = key.split("/")
    return f"{section}/{last}" if section == "perfbench" else section


def check(found: dict[str, list[str]], expected: dict[str, str], ran: set[str]) -> list[str]:
    """Every problem with ``found`` against the committed ``expected``;
    a committed key is asked for when its :func:`producer` is in ``ran``."""
    problems = []
    for key, digests in sorted(found.items()):
        want = expected.get(key)
        if want is None:
            problems.append(f"{key}: no committed digest")
        elif digests != [want]:
            problems.append(f"{key}: got {' '.join(digests) or 'none'}, committed {want}")
        else:
            print(f"ok    {key} {want[:16]}")
    for key in sorted(expected.keys() - found.keys()):
        if producer(key) in ran:
            problems.append(f"{key}: committed but not produced")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="*", type=Path, help="perfbench/run.py stdout files")
    args = parser.parse_args(argv)
    found: dict[str, list[str]] = {}
    for report in args.reports:
        for key, digests in parse_report(report.read_text()).items():
            found.setdefault(key, []).extend(digests)
    if args.reports and not found:
        print("no perfbench workload reports found", file=sys.stderr)
        return 2
    expected = json.loads(BASELINE.read_text()).get(versions_key())
    if expected is None:
        print(f"FAIL  no committed digests for {versions_key()}")
        return 1
    for section, produce in SECTIONS.items():
        found.update({f"{section}/{name}": [d] for name, d in produce().items()})
    problems = check(found, expected, set(SECTIONS) | {producer(key) for key in found})
    for problem in problems:
        print(f"FAIL  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
