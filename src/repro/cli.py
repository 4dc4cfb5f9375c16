"""Command-line interface: regenerate any of the paper's experiments.

Usage (installed as the ``repro-experiments`` console script)::

    repro-experiments fig4
    repro-experiments fig5b --quick
    repro-experiments fig5def --out results/
    repro-experiments all

Each command runs the corresponding harness and prints the same
rows/series the paper's figure plots; ``--out DIR`` additionally writes
CSV files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the evaluation of Gerofi et al., CLUSTER 2010.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "fig4", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f",
            "fig5def", "all",
        ],
        help="which figure to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale (smaller sweeps / shorter runs)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="master seed (default 42)"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write CSV exports into",
    )
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="enable migration tracing and write JSONL traces into this "
        "directory (fig4, fig5b, fig5c; inspect with repro-trace)",
    )
    return parser


def _sweep_config(args):
    from .analysis import SweepConfig

    trace_dir = getattr(args, "trace_dir", None)
    if args.quick:
        return SweepConfig(
            conn_counts=(16, 64, 256), repetitions=1, seed=args.seed,
            trace_dir=trace_dir,
        )
    return SweepConfig(repetitions=2, seed=args.seed, trace_dir=trace_dir)


def _fig4_config(args):
    from .openarena import Fig4Config

    trace_dir = getattr(args, "trace_dir", None)
    if args.quick:
        return Fig4Config(
            seed=args.seed, warmup=1.5, cooldown=1.5, phase_sweep=(0.0, 0.5),
            trace_dir=trace_dir,
        )
    return Fig4Config(seed=args.seed, trace_dir=trace_dir)


def _fig5_campaign(args):
    from .analysis import FIG5_CAMPAIGN, FIG5_QUICK_CAMPAIGN

    return FIG5_QUICK_CAMPAIGN if args.quick else FIG5_CAMPAIGN


def _export_series(bundle, path: Path) -> None:
    from .analysis.export import series_to_csv

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(series_to_csv(bundle))
    print(f"wrote {path}")


def run_fig4_cmd(args) -> None:
    from .analysis import render_fig4, run_fig4

    result = run_fig4(_fig4_config(args))
    print(render_fig4(result))
    if args.out:
        from .analysis.export import fig4_to_csv

        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "fig4_timeline.csv").write_text(fig4_to_csv(result))
        print(f"wrote {args.out / 'fig4_timeline.csv'}")
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is not None:
        print(f"wrote {trace_dir / 'fig4_worst.jsonl'}")


def run_fig5bc_cmd(args, which: str) -> None:
    from .analysis import render_fig5b, render_fig5c, run_freeze_sweep

    result = run_freeze_sweep(_sweep_config(args))
    if which in ("fig5b", "all"):
        print(render_fig5b(result))
    if which in ("fig5c", "all"):
        print(render_fig5c(result))
    if args.out:
        from .analysis.export import sweep_to_csv

        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "fig5bc_sweep.csv").write_text(sweep_to_csv(result))
        print(f"wrote {args.out / 'fig5bc_sweep.csv'}")
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is not None:
        n_traces = len(list(trace_dir.glob("fig5b_*.jsonl")))
        print(f"wrote {n_traces} traces under {trace_dir}")


def run_fig5def_cmd(args, which: str) -> None:
    from .analysis import (
        render_comparison,
        render_fig5d,
        render_fig5e,
        render_fig5f,
        run_fig5def,
    )

    cmp = run_fig5def(_fig5_campaign(args), seed=args.seed)
    if which in ("fig5e", "fig5def", "all"):
        print(render_fig5e(cmp.without_lb))
    if which in ("fig5f", "fig5def", "all"):
        print(render_fig5f(cmp.with_lb))
    if which in ("fig5d", "fig5def", "all"):
        print(render_fig5d(cmp.with_lb))
    print()
    print(render_comparison(cmp))
    if args.out:
        _export_series(cmp.without_lb.cpu, args.out / "fig5e_cpu_no_lb.csv")
        _export_series(cmp.with_lb.cpu, args.out / "fig5f_cpu_lb.csv")
        _export_series(cmp.with_lb.procs, args.out / "fig5d_procs.csv")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.time()
    which = args.experiment

    if which in ("fig5a", "all"):
        from .analysis import render_fig5a

        print(render_fig5a(_fig5_campaign(args)))
        print()
    if which == "fig4" or which == "all":
        run_fig4_cmd(args)
        print()
    if which in ("fig5b", "fig5c", "all"):
        run_fig5bc_cmd(args, which)
        print()
    if which in ("fig5d", "fig5e", "fig5f", "fig5def", "all"):
        run_fig5def_cmd(args, which)

    print(f"\n[{time.time() - start:.1f}s wall]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
