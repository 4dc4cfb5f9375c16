"""Benchmark-trajectory recorder and the ``repro-bench`` command.

Benchmarks under ``benchmarks/bench_*.py`` double as pytest-benchmark
suites *and* as recordable experiments: a bench module that exports a
``bench_result(quick: bool) -> dict`` hook can be executed by
``repro-bench run``, which wraps the returned measurements in a
versioned document and writes ``BENCH_<name>.json``::

    {
      "schema": "repro-bench/1",
      "name": "fig5b_freeze_time",
      "created_rev": "4073809…",        # git rev at record time (or null)
      "quick": true,
      "params": {...},                  # whatever the bench ran with
      "metrics": {
        "freeze_time_p99": {"value": 1.9e-3, "unit": "s",
                            "direction": "lower"},
        ...
      },
      "histograms": {"freeze_time": {"count": …, "p50": …, …}},
      "slos": {"passed": true, "checks": [...]}
    }

``direction`` states which way is *better* (``lower`` | ``higher`` |
``none``), which is what makes ``repro-bench compare`` meaningful: a
regression is a move in the *worse* direction by more than the
threshold percentage, improvements never fail the gate, and
``direction: none`` metrics are checked for drift in either direction.

The simulation is deterministic (seeded), so recorded baselines are
stable enough to commit and diff in CI.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterable, Optional

__all__ = [
    "BENCH_SCHEMA",
    "DIRECTIONS",
    "git_rev",
    "make_bench",
    "validate_bench",
    "write_bench",
    "read_bench",
    "compare_benches",
    "discover_benches",
    "run_bench_file",
    "main",
]

BENCH_SCHEMA = "repro-bench/1"
DIRECTIONS = ("lower", "higher", "none")


# -- document construction / validation -------------------------------------
def git_rev(cwd: Optional[str] = None) -> Optional[str]:
    """Current git revision, or ``None`` outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def make_bench(
    name: str,
    *,
    quick: bool,
    params: Optional[dict] = None,
    metrics: Optional[dict] = None,
    histograms: Optional[dict] = None,
    slos: Optional[dict] = None,
    rev: Optional[str] = None,
) -> dict:
    """Assemble a schema-valid bench document from a hook's pieces."""
    doc = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "created_rev": rev if rev is not None else git_rev(),
        "quick": bool(quick),
        "params": dict(params or {}),
        "metrics": dict(metrics or {}),
        "histograms": dict(histograms or {}),
        "slos": dict(slos) if slos is not None else None,
    }
    validate_bench(doc)
    return doc


def validate_bench(doc: Any) -> dict:
    """Check a bench document against the ``repro-bench/1`` schema.

    Returns the document; raises ``ValueError`` naming the first
    offending field otherwise.
    """

    def fail(msg: str) -> None:
        raise ValueError(f"invalid bench document: {msg}")

    if not isinstance(doc, dict):
        fail(f"expected an object, got {type(doc).__name__}")
    if doc.get("schema") != BENCH_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        fail("name must be a non-empty string")
    if not isinstance(doc.get("quick"), bool):
        fail("quick must be a boolean")
    rev = doc.get("created_rev")
    if rev is not None and not isinstance(rev, str):
        fail("created_rev must be a string or null")
    if not isinstance(doc.get("params"), dict):
        fail("params must be an object")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("metrics must be an object")
    for mname, m in metrics.items():
        if not isinstance(m, dict):
            fail(f"metric {mname!r} must be an object")
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            fail(f"metric {mname!r} value must be a number")
        if not isinstance(m.get("unit"), str):
            fail(f"metric {mname!r} unit must be a string")
        if m.get("direction") not in DIRECTIONS:
            fail(
                f"metric {mname!r} direction must be one of {DIRECTIONS}, "
                f"got {m.get('direction')!r}"
            )
    hists = doc.get("histograms")
    if not isinstance(hists, dict):
        fail("histograms must be an object")
    for hname, h in hists.items():
        if not isinstance(h, dict) or not isinstance(h.get("count"), int):
            fail(f"histogram {hname!r} must be a summary object with a count")
    slos = doc.get("slos")
    if slos is not None:
        if not isinstance(slos, dict) or not isinstance(slos.get("passed"), bool):
            fail("slos must be null or an object with a boolean 'passed'")
        if not isinstance(slos.get("checks"), list):
            fail("slos.checks must be a list")
    return doc


# -- persistence -------------------------------------------------------------
def bench_path(directory: Path, name: str) -> Path:
    return Path(directory) / f"BENCH_{name}.json"


def write_bench(directory: Path, doc: dict) -> Path:
    """Write ``BENCH_<name>.json`` (validated) into ``directory``."""
    validate_bench(doc)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = bench_path(directory, doc["name"])
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read_bench(path: Path) -> dict:
    """Load and validate a ``BENCH_*.json`` file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    try:
        return validate_bench(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- comparison ---------------------------------------------------------------
def compare_benches(old: dict, new: dict, threshold_pct: float = 10.0) -> list[dict]:
    """Direction-aware regression check of ``new`` against baseline ``old``.

    Returns one entry per metric present in the baseline::

        {"metric", "old", "new", "change_pct", "direction",
         "status": "ok" | "improved" | "regressed" | "missing"}

    A metric regressed when it moved in its *worse* direction by more
    than ``threshold_pct`` percent (for ``direction: none``, any drift
    beyond the threshold regresses).  Metrics that vanished from the new
    run are reported as ``missing`` — a gate should treat that as a
    failure, not a silent pass.
    """
    validate_bench(old)
    validate_bench(new)
    results: list[dict] = []
    for mname, om in old["metrics"].items():
        nm = new["metrics"].get(mname)
        entry = {
            "metric": mname,
            "old": om["value"],
            "new": None if nm is None else nm["value"],
            "direction": om["direction"],
            "change_pct": None,
            "status": "missing",
        }
        if nm is not None:
            ov, nv = float(om["value"]), float(nm["value"])
            if ov == 0.0:
                change = 0.0 if nv == 0.0 else float("inf")
            else:
                change = 100.0 * (nv - ov) / abs(ov)
            entry["change_pct"] = change
            worse = {
                "lower": change > threshold_pct,
                "higher": change < -threshold_pct,
                "none": abs(change) > threshold_pct,
            }[om["direction"]]
            better = {
                "lower": change < 0,
                "higher": change > 0,
                "none": False,
            }[om["direction"]]
            entry["status"] = (
                "regressed" if worse else ("improved" if better else "ok")
            )
        results.append(entry)
    return results


def render_comparison(results: Iterable[dict], threshold_pct: float) -> str:
    from ..analysis.report import render_table

    rows = []
    for r in results:
        change = "-" if r["change_pct"] is None else f"{r['change_pct']:+.1f}%"
        new = "-" if r["new"] is None else f"{r['new']:.6g}"
        rows.append([r["status"], r["metric"], f"{r['old']:.6g}", new, change, r["direction"]])
    return render_table(
        ["status", "metric", "baseline", "current", "change", "better"],
        rows,
        title=f"bench comparison (regression threshold {threshold_pct:g}%)",
    )


# -- discovery / execution -----------------------------------------------------
def discover_benches(bench_dir: Path) -> list[Path]:
    """All ``bench_*.py`` files under ``bench_dir``, sorted by name."""
    return sorted(Path(bench_dir).glob("bench_*.py"))


def _bench_name(path: Path) -> str:
    return path.stem[len("bench_"):]


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"repro_bench_{path.stem}", path)
    if spec is None or spec.loader is None:  # pragma: no cover - importlib misuse
        raise ImportError(f"cannot load {path}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_bench_file(path: Path, quick: bool) -> Optional[dict]:
    """Execute one bench module's ``bench_result`` hook.

    Returns the validated bench document, or ``None`` when the module
    does not export the hook (pytest-only benches are skipped, not
    errors).
    """
    mod = _load_module(Path(path))
    hook = getattr(mod, "bench_result", None)
    if hook is None:
        return None
    result = hook(quick=quick)
    if "schema" not in result:
        # Allow hooks to return just the payload pieces.
        result = make_bench(
            result.pop("name", _bench_name(Path(path))),
            quick=quick,
            **result,
        )
    return validate_bench(result)


def _select(paths: list[Path], names: list[str]) -> list[Path]:
    """Prefix-match requested names against discovered bench files."""
    if not names:
        return paths
    chosen: list[Path] = []
    for want in names:
        matches = [p for p in paths if _bench_name(p).startswith(want) or p.stem.startswith(want)]
        if not matches:
            known = ", ".join(_bench_name(p) for p in paths)
            raise SystemExit(f"repro-bench: no bench matches {want!r} (known: {known})")
        for m in matches:
            if m not in chosen:
                chosen.append(m)
    return chosen


# -- CLI ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    quick = args.quick or os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    paths = _select(discover_benches(Path(args.bench_dir)), args.names)
    out_dir = Path(args.out)
    wrote = 0
    failed_slos: list[str] = []
    for path in paths:
        doc = run_bench_file(path, quick=quick)
        if doc is None:
            print(f"skip {path.name}: no bench_result hook")
            continue
        written = write_bench(out_dir, doc)
        wrote += 1
        slos = doc.get("slos")
        verdict = ""
        if slos is not None:
            verdict = " [SLO pass]" if slos["passed"] else " [SLO FAIL]"
            if not slos["passed"]:
                failed_slos.append(doc["name"])
                for check in slos["checks"]:
                    if not check["passed"]:
                        print(f"  SLO FAIL {doc['name']}: {check['rule']} — {check['reason']}")
        print(f"wrote {written}{verdict}")
    if wrote == 0:
        print("repro-bench: no recordable benches ran", file=sys.stderr)
        return 1
    if failed_slos and not args.no_slo_gate:
        print(f"repro-bench: SLO violations in: {', '.join(failed_slos)}", file=sys.stderr)
        return 2
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    # A gate that cannot find (or parse) its baseline must say so and
    # exit with the usage code, not die in a traceback.
    try:
        old = read_bench(Path(args.baseline))
    except (OSError, ValueError) as exc:
        print(f"repro-bench: missing baseline: {args.baseline} ({exc})", file=sys.stderr)
        return 2
    try:
        new = read_bench(Path(args.current))
    except (OSError, ValueError) as exc:
        print(f"repro-bench: missing current: {args.current} ({exc})", file=sys.stderr)
        return 2
    if old["name"] != new["name"]:
        print(
            f"repro-bench: comparing different benches "
            f"({old['name']!r} vs {new['name']!r})",
            file=sys.stderr,
        )
        return 2
    results = compare_benches(old, new, threshold_pct=args.threshold)
    print(render_comparison(results, args.threshold))
    bad = [r for r in results if r["status"] in ("regressed", "missing")]
    if bad:
        # Root-cause the failure: rank *every* movement (metrics and
        # histogram percentiles), not just the gated ones, so the
        # largest mover is visible even when it wasn't gated itself.
        from .diff import bench_root_cause_table

        print()
        print(bench_root_cause_table(old, new, results))
        for r in bad:
            print(
                f"repro-bench: {r['status']}: {r['metric']}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for path in discover_benches(Path(args.bench_dir)):
        mod = _load_module(path)
        has_hook = "recordable" if hasattr(mod, "bench_result") else "pytest-only"
        print(f"{_bench_name(path):<28} {has_hook:<12} {path}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run recordable benchmarks and compare BENCH_*.json trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute bench_result hooks, write BENCH_<name>.json")
    p_run.add_argument("names", nargs="*", help="bench name prefixes (default: all)")
    p_run.add_argument("--bench-dir", default="benchmarks", help="directory with bench_*.py")
    p_run.add_argument("--out", default="bench-results", help="output directory")
    p_run.add_argument("--quick", action="store_true", help="force quick mode (REPRO_BENCH_QUICK)")
    p_run.add_argument(
        "--no-slo-gate",
        action="store_true",
        help="record SLO verdicts but do not fail the exit code on violations",
    )
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="diff a current BENCH json against a baseline")
    p_cmp.add_argument("baseline", help="baseline BENCH_<name>.json")
    p_cmp.add_argument("current", help="current BENCH_<name>.json")
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="regression threshold in percent (default: 10)",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_list = sub.add_parser("list", help="list discovered benches and whether they are recordable")
    p_list.add_argument("--bench-dir", default="benchmarks")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
