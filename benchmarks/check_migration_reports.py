"""Check small mode x compression migration reports against committed digests.

    PYTHONPATH=src python3 benchmarks/check_migration_reports.py

Runs one small migration for every ``precopy``/``postcopy``/``hybrid`` x
``none``/``zero-page``/``xbzrle`` pair, takes the SHA-256 of each
report's ``dataclasses.asdict`` (without ``pid`` and ``session``, which
come from process-wide counters), and compares it with
``baselines/migration_report_digests.json``.  That file is keyed like
``campaign_trace_digests.json`` (``<python minor>/numpy-<version>``),
then ``<mode>/<compression>``.  The process re-dirties a hot set slowly
enough that XBZRLE deltas pay, and starts with unwritten pages, so every
compressor branch (zero page, paying delta, full page) feeds the
timings and byte counts of the report.  Exits 1 when a digest differs,
when a pair has no committed digest, when a committed pair no longer
runs, or when nothing is committed for the running versions.  A
deliberate re-baseline edits the JSON file and says why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baselines" / "migration_report_digests.json"

MODES = ("precopy", "postcopy", "hybrid")
COMPRESSIONS = ("none", "zero-page", "xbzrle")
#: Address-space size of the migrating process, in pages.
PAGES = 2048
#: Ranges written before the migration; the rest stay zero pages.
PREWRITE = ((0, 300), (100, 50), (900, 400), (1500, 8))


def run_case(mode: str, compression: str):
    """One migration in ``mode`` under ``compression``; its report."""
    from repro.cluster import build_cluster
    from repro.core import LiveMigrationConfig, migrate_process
    from repro.scenarios.workload import HotSet, start_dirtier
    from repro.testing import run_for

    cluster = build_cluster(n_nodes=2, with_db=False, master_seed=5)
    source, dest = cluster.nodes
    proc = source.kernel.spawn_process("reports0")
    space = proc.address_space
    area = space.mmap(PAGES, tag="heap")
    for offset, count in PREWRITE:
        space.write_range(area, count, offset)
    start_dirtier(cluster.env, proc, area, HotSet(pages=96, interval=0.003, offset=850))
    run_for(cluster, 0.1)
    cfg = LiveMigrationConfig(mode=mode, compression=compression)
    report = cluster.env.run(until=migrate_process(source, dest, proc, cfg))
    run_for(cluster, 0.3)
    return report


def report_digest(report) -> str:
    """SHA-256 of the report's fields, ``pid`` and ``session`` left out.
    JSON writes floats with ``repr``, so the digest sees every bit."""
    fields = dataclasses.asdict(report)
    del fields["pid"], fields["session"]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def report_digests() -> dict[str, str]:
    """``<mode>/<compression> -> SHA-256`` of its report."""
    return {
        f"{mode}/{compression}": report_digest(run_case(mode, compression))
        for mode in MODES
        for compression in COMPRESSIONS
    }


def versions_key() -> str:
    """The key of the running versions in the committed file."""
    import numpy

    return f"{sys.version_info.major}.{sys.version_info.minor}/numpy-{numpy.__version__}"


def check(found: dict[str, str], committed: dict, versions: str) -> list[str]:
    """Every problem with ``found`` against ``committed[versions]``."""
    expected = committed.get(versions)
    if expected is None:
        return [f"no committed report digests for {versions}"]
    problems = []
    for name, digest in sorted(found.items()):
        want = expected.get(name)
        if want is None:
            problems.append(f"{name}: no committed digest")
        elif digest != want:
            problems.append(f"{name}: got {digest}, committed {want}")
        else:
            print(f"ok    {name} {want[:16]}")
    for name in sorted(expected.keys() - found.keys()):
        problems.append(f"{name}: committed but not run")
    return problems


def main() -> int:
    problems = check(report_digests(), json.loads(BASELINE.read_text()), versions_key())
    for problem in problems:
        print(f"FAIL  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
