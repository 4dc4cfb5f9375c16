"""Check the quick named-campaign traces against the committed digests.

    PYTHONPATH=src python3 benchmarks/check_campaign_traces.py

Runs every named campaign in quick mode with tracing on, takes the
SHA-256 of each JSONL trace, and compares it with
``baselines/campaign_trace_digests.json``.  That file is keyed like
``perfbench_digests.json`` (``<python minor>/numpy-<version>``: the
campaigns draw from numpy's random distributions), then campaign name.
A trace records every decision, migration and fault of a run, so an
equal digest means the run is byte-identical.  Trace ids come from
process-wide counters, so the digests hold for a fresh interpreter that
runs the campaigns in name order, as this script does.  Exits 1 when a
digest differs, when a campaign has no committed digest, when a
committed campaign no longer exists, or when nothing is committed for
the running versions.  A deliberate re-baseline edits the JSON file and
says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baselines" / "campaign_trace_digests.json"


def versions_key() -> str:
    """The key of the running versions in the committed file."""
    import numpy

    return f"{sys.version_info.major}.{sys.version_info.minor}/numpy-{numpy.__version__}"


def trace_digests() -> dict[str, str]:
    """``campaign name -> SHA-256`` of its quick-mode trace."""
    from repro.scenarios.campaign import campaign_names, get_campaign, run_campaign

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in campaign_names():
            path = Path(tmp) / f"{name}.trace.jsonl"
            run_campaign(get_campaign(name), quick=True, trace_path=path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def check(found: dict[str, str], committed: dict, versions: str) -> list[str]:
    """Every problem with ``found`` against ``committed[versions]``."""
    expected = committed.get(versions)
    if expected is None:
        return [f"no committed trace digests for {versions}"]
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
        problems.append(f"{name}: committed but not a named campaign")
    return problems


def main() -> int:
    problems = check(trace_digests(), json.loads(BASELINE.read_text()), versions_key())
    for problem in problems:
        print(f"FAIL  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
