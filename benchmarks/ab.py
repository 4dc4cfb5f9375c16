"""A/B wall-clock comparison of this tree against an earlier revision.

    python3 benchmarks/ab.py BASE_REV [--workload W] [--pairs N] [--seed S]
                                      [--seconds T] [--record]

Makes two clean copies: ``BASE_REV`` (``git archive``) and the working
tree as it is (tracked and untracked, not ignored, files), each compiled
once, so neither side pays for stale bytecode.  Then runs
``perfbench/run.py --trace 0`` on both, ``--pairs`` times, alternating
which tree goes first so a slow phase of a shared host hits both sides.

Exits 1 when a run fails or the trees' simulated-output digests differ
(a perf change must not move simulated results).  Otherwise prints, per
workload and end-to-end metric, both medians, the base's interquartile
range, the ratio of the medians, how many pairs the change won and a
verdict against the bounds in ``BENCHMARK.json``:

* ``worse``: the median is worse than the base's by more than the bound;
* ``better``: the change won at least nine pairs in ten and its median
  beats the base's by more than the base's interquartile range;
* ``same``: neither.

Exits 3 when some metric is worse by more than its bound in *every*
pair (the CI gate: with few pairs on a shared runner, a median alone is
noise).  ``--record`` appends the summary as one line to
``benchmarks/trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "trajectory.jsonl"
WORKLOADS = ("fig5b-sockets", "campaign-suite", "bulk-memory")

_DIGEST = re.compile(r"^\s+simulated-output digest ([0-9a-f]{64})$")


class ABError(Exception):
    """A run failed or the trees disagree on the simulated outputs."""


def bounds() -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` of BENCHMARK.json's end-to-end metrics."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, relative to ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / base
    return change if better == "lower" else -change


def iqr(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q3 - q1


def summarize(base: list[float], new: list[float], better: str, bound: float) -> dict:
    """One metric's verdict from paired samples (``base[i]`` and
    ``new[i]`` ran back to back)."""
    if len(base) != len(new) or not base:
        raise ValueError("need one base and one new sample per pair")
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    spread = iqr(base)
    pairs = list(zip(base, new))
    wins = sum(worse_by(b, n, better) < 0 for b, n in pairs)
    if worse_by(base_median, new_median, better) > bound:
        verdict = "worse"
    elif wins >= math.ceil(0.9 * len(pairs)) and (
        worse_by(base_median, new_median, better) < 0 and abs(new_median - base_median) > spread
    ):
        verdict = "better"
    else:
        verdict = "same"
    return {
        "base_median": base_median,
        "new_median": new_median,
        "base_iqr": spread,
        "ratio": new_median / base_median if base_median else math.inf,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": verdict,
        "worse_every_pair": all(worse_by(b, n, better) > bound for b, n in pairs),
        "base": base,
        "new": new,
    }


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def copy_base(rev: str, dest: Path) -> None:
    archive = _git("archive", "--format=tar", rev).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    listing = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in filter(None, listing.decode().split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def compile_tree(tree: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    command = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
    subprocess.run(command, cwd=tree, env=env, check=True)


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, set]:
    """One ``--trace 0`` run: ``({metric: value}, {digest, ...})``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise ABError(f"perfbench in {tree} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise ABError(f"perfbench in {tree} reported an incorrect run:\n{proc.stdout}")
    digests = {m.group(1) for line in lines if (m := _DIGEST.match(line))}
    return {k: m["value"] for k, m in result["metrics"].items()}, digests


def compare(base_tree: Path, new_tree: Path, workload: str, pairs: int, seed: int,
            seconds: float) -> dict:
    """Paired runs of one workload; ``{metric: summary}``."""
    samples: dict[str, tuple[list, list]] = {}
    for i in range(pairs):
        order = ((0, base_tree), (1, new_tree)) if i % 2 == 0 else ((1, new_tree), (0, base_tree))
        got = {}
        for side, tree in order:
            got[side] = run_perfbench(tree, workload, seed, seconds)
        (base_metrics, base_digests), (new_metrics, new_digests) = got[0], got[1]
        if base_digests != new_digests:
            raise ABError(
                f"{workload}: simulated-output digests differ: base {sorted(base_digests)}, "
                f"change {sorted(new_digests)}"
            )
        for name, value in base_metrics.items():
            b, n = samples.setdefault(name, ([], []))
            b.append(value)
            n.append(new_metrics[name])
    limits = bounds()
    return {
        name: summarize(b, n, *limits[name]) for name, (b, n) in samples.items() if name in limits
    }


def report(workload: str, summaries: dict) -> None:
    print(f"== {workload}")
    print(f"  {'metric':18s} {'base median':>12s} {'new median':>12s} {'base IQR':>10s}"
          f" {'ratio':>7s} {'wins':>6s}  verdict")
    for name, s in summaries.items():
        flag = "  (worse in every pair)" if s["worse_every_pair"] else ""
        print(f"  {name:18s} {s['base_median']:12.4g} {s['new_median']:12.4g} {s['base_iqr']:10.3g}"
              f" {s['ratio']:7.3f} {s['wins']:>3d}/{s['pairs']:<2d}  {s['verdict']}{flag}")


def host() -> dict:
    """What the numbers depend on besides the code."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            names = (line.split(":", 1)[1] for line in info if line.startswith("model name"))
            cpu = next(names).strip()
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def change_label() -> str:
    head = _git("rev-parse", "--short", "HEAD").stdout.decode().strip()
    dirty = _git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return f"{head}+changes" if dirty else head


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    base_sha = _git("rev-parse", "--short", args.base_rev).stdout.decode().strip()
    results = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base_tree, new_tree = Path(tmp, "base"), Path(tmp, "new")
        base_tree.mkdir()
        new_tree.mkdir()
        copy_base(args.base_rev, base_tree)
        copy_working_tree(new_tree)
        compile_tree(base_tree)
        compile_tree(new_tree)
        print(f"base {base_sha}, change {change_label()}: {args.pairs} pairs of "
              f"{args.seconds:g} s runs at seed {args.seed}")
        try:
            for workload in workloads:
                results[workload] = compare(
                    base_tree, new_tree, workload, args.pairs, args.seed, args.seconds
                )
                report(workload, results[workload])
        except ABError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
    if args.record:
        line = {
            "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
            "base": base_sha,
            "change": change_label(),
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "host": host(),
            "workloads": results,
        }
        with TRAJECTORY.open("a") as out:
            out.write(json.dumps(line, sort_keys=True) + "\n")
    failing = [
        f"{w}/{name}" for w, s in results.items() for name, m in s.items() if m["worse_every_pair"]
    ]
    if failing:
        print(f"ab: worse than the bound in every pair: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
