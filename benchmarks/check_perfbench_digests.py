"""Check perfbench's simulated-output digests against the committed ones.

    python3 perfbench/run.py --seconds 5 --seed 1 > seed1.txt
    python3 benchmarks/check_perfbench_digests.py seed1.txt [seed2.txt ...]

Reads perfbench's printed report, pairs every ``== <workload> (seed N)``
header with the ``simulated-output digest`` lines under it, and compares
each with ``baselines/perfbench_digests.json``.  That file is keyed by
the versions the digests depend on (``<python minor>/numpy-<version>``:
the simulator draws from numpy's random distributions, which may change
between numpy releases), then workload, then seed.  Exits 1 when a
digest differs, when a workload printed more than one digest (its
passes disagreed), when the file holds no digest for a workload and seed
that ran, when a committed workload is missing from a seed that ran, or
when nothing is committed for the running versions; exits 2 when the
reports hold no digest at all.  A deliberate re-baseline edits the JSON
file and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baselines" / "perfbench_digests.json"

_HEADER = re.compile(r"^== (\S+) \(seed (\d+)\)$")
_DIGEST = re.compile(r"^\s+simulated-output digest ([0-9a-f]{64})$")


def parse_report(text: str) -> dict[tuple[str, str], list[str]]:
    """``(workload, seed) -> [digest, ...]`` from one perfbench report."""
    found: dict[tuple[str, str], list[str]] = {}
    current = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            current = header.groups()
            found.setdefault(current, [])
            continue
        digest = _DIGEST.match(line)
        if digest and current is not None:
            found[current].append(digest.group(1))
    return found


def versions_key() -> str:
    """The key of the running versions in the committed file."""
    import numpy

    return f"{sys.version_info.major}.{sys.version_info.minor}/numpy-{numpy.__version__}"


def check(found: dict[tuple[str, str], list[str]], committed: dict, versions: str) -> list[str]:
    """Every problem with ``found`` against ``committed[versions]``."""
    expected = committed.get(versions)
    if expected is None:
        return [f"no committed digests for {versions}"]
    problems = []
    for (workload, seed), digests in sorted(found.items()):
        want = expected.get(workload, {}).get(seed)
        label = f"{workload} seed {seed}"
        if want is None:
            problems.append(f"{label}: no committed digest")
        elif digests != [want]:
            problems.append(f"{label}: got {' '.join(digests) or 'none'}, committed {want}")
        else:
            print(f"ok    {label} {want[:16]}")
    seeds_run = {seed for _, seed in found}
    for workload, by_seed in sorted(expected.items()):
        for seed in sorted(seeds_run & by_seed.keys()):
            if (workload, seed) not in found:
                problems.append(f"{workload} seed {seed}: committed but not in the reports")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+", type=Path, help="perfbench/run.py stdout files")
    args = parser.parse_args(argv)
    found: dict[tuple[str, str], list[str]] = {}
    for report in args.reports:
        for key, digests in parse_report(report.read_text()).items():
            found.setdefault(key, []).extend(digests)
    if not found:
        print("no perfbench workload reports found", file=sys.stderr)
        return 2
    problems = check(found, json.loads(BASELINE.read_text()), versions_key())
    for problem in problems:
        print(f"FAIL  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
