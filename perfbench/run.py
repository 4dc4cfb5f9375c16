"""Wall-clock benchmark of the simulator.

    python3 perfbench/run.py --workload fig5b-sockets --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                      # every workload, seed 1

Each workload runs in fresh single-threaded child processes
(``perfbench/child.py``):

* ``--trace 0``: ``SETUP_PROBES`` children each import the simulator and
  build the first world, giving ``setup_s`` (median); one child runs
  whole passes over the workload for ``--seconds`` and gives ``wall_s``
  (see :func:`best_pass_wall`), ``sim_s_per_wall_s`` and ``peak_rss_mb``.
* ``--trace 1``: one child alternates untraced and traced passes and
  gives the per-layer metrics; the traced spans go to
  ``.perfbench/trace-<workload>-seed<seed>.json``.

Every metric is printed by name with its unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A run
is correct when every unit's output check passed and every pass (traced
or not) produced the same simulated-output digest.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("fig5b-sockets", "campaign-suite", "bulk-memory")
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 7
#: A run must end within this many seconds, set-up probes included.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A child failed: no result may be printed."""


def _child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args],
            cwd=ROOT,
            # The same str hashing, and so the same dict and set layouts,
            # in every child.
            env={**os.environ, "PYTHONHASHSEED": "0"},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, count: int, deadline: float) -> list[float]:
    """Process start to first simulated event, once per fresh interpreter."""
    samples = []
    for _ in range(count):
        spawned = time.monotonic()
        first = _child(["setup", workload, str(seed)], deadline)["first_event_monotonic"]
        samples.append(first - spawned)
    return samples


def best_pass_wall(unit_walls: list[list[float]]) -> float:
    """A pass's wall time with each unit at its fastest repetition.

    The host is shared: neighbours slow it down for seconds at a time,
    often across half the passes of a run, and never speed it up.  So the
    least contended estimate of each unit's cost is its minimum, and the
    pass is their sum.
    """
    return sum(min(walls) for walls in zip(*unit_walls))


def run_workload(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    """One workload's result: correctness counts plus ``metrics``."""
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_out = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        out = _child(["trace", workload, str(seed), str(seconds), trace_out], deadline)
        metrics = out["metrics"]
    else:
        # Half the set-up probes before the measured child and half after,
        # so one slow phase of the shared host does not set the median.
        setups = setup_seconds(workload, seed, SETUP_PROBES // 2, deadline)
        out = _child(["measure", workload, str(seed), str(seconds)], deadline)
        setups += setup_seconds(workload, seed, SETUP_PROBES - SETUP_PROBES // 2, deadline)
        wall = best_pass_wall(out["unit_walls"])
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "sim_s_per_wall_s": {"value": out["sim_s"] / wall, "unit": "s/s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    out["correct"] = out["failed"] == 0 and len(out["digests"]) == 1
    out["metrics"] = metrics
    return out


_DIRECTIONS = {
    "wall_s": "lower",
    "setup_s": "lower",
    "sim_s_per_wall_s": "higher",
    "peak_rss_mb": "lower",
}


def report(workload: str, seed: int, out: dict) -> None:
    """Human-readable lines for one workload."""
    ratio = out["failed"] / out["attempted"]
    print(f"== {workload} (seed {seed})")
    for name, m in out["metrics"].items():
        direction = _DIRECTIONS.get(name)
        suffix = f"  ({direction} is better)" if direction else ""
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{suffix}")
    print(f"  {'ops_failed_ratio':34s} {ratio:>16.6g} ratio  (lower is better)")
    print(f"  units attempted {out['attempted']}, failed {out['failed']}", end="")
    if "walls" in out:
        print(f", DES events per pass {out['events']}", end="")
    print()
    if "walls" in out:
        print("  pass walls (s) " + " ".join(f"{w:.3f}" for w in out["walls"]))
    for digest in out["digests"]:
        print(f"  simulated-output digest {digest}")
    if len(out["digests"]) != 1:
        print("  FAIL: passes disagree on the simulated outputs")
    for problem in out["problems"]:
        print(f"  FAIL: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    try:
        for name in names:
            deadline = start + RUN_BUDGET_S * (len(results) + 1)
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            report(name, args.seed, results[name])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, out in results.items() for k, m in out["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(out["correct"] for out in results.values()),
                "attempted": sum(out["attempted"] for out in results.values()),
                "failed": sum(out["failed"] for out in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
