"""Pool execution of a sweep matrix.

Each matrix point runs in its own worker process with an isolated
output directory (``<out>/runs/<run_id>/``) holding its JSONL trace,
per-tick series CSV and ``repro-bench/1`` document; the parent merges
the summaries into one ``repro-sweep/1`` document.

Workers receive only picklable primitives (the campaign *text* plus
axis overrides), re-parse and run independently, and report back a
plain dict — a crash in one run becomes an ``error`` entry in the
merged document, not a dead sweep.  Per-run wall clocks are measured
inside the workers, so the merged document carries both the parallel
wall time and the serial sum the same matrix would have cost.
"""

from __future__ import annotations

import time
from pathlib import Path

from .merge import make_sweep_doc
from .spec import SweepSpec, parse_strategy_value

__all__ = ["run_sweep"]


def _job_for(run, spec: SweepSpec, quick: bool, out_dir: Path) -> dict:
    from ..scenarios.campaign import NAMED_CAMPAIGNS

    text = spec.base_text if run.campaign is None else NAMED_CAMPAIGNS[run.campaign]
    return {
        "run_id": run.run_id,
        "params": dict(run.params),
        "campaign_text": text,
        "campaign_path": f"<sweep:{spec.name}:{run.run_id}>",
        "strategy": run.strategy,
        "seed": run.seed,
        "faults": run.faults,
        "quick": quick,
        "run_dir": str(out_dir / "runs" / run.run_id),
    }


def _run_one(job: dict) -> dict:
    """Execute one matrix point (module-level: pool workers import it)."""
    from ..faults import FaultPlan
    from ..faults.dsl import parse_fault
    from ..obs.bench import write_bench
    from ..scenarios.campaign import parse_campaign, run_campaign

    t0 = time.perf_counter()
    summary: dict = {"run_id": job["run_id"], "params": job["params"]}
    try:
        campaign = parse_campaign(job["campaign_text"], path=job["campaign_path"])
        overrides: dict = {}
        if job["strategy"] is not None:
            name, params = parse_strategy_value(job["strategy"])
            overrides["strategy"] = name
            overrides["strategy_params"] = params
        if job["faults"] is not None:
            plan = FaultPlan()
            for line in job["faults"].split(";"):
                line = line.strip()
                if line:
                    plan.add(parse_fault(line))
            overrides["faults"] = plan
        if overrides:
            campaign = campaign.with_overrides(**overrides)

        run_dir = Path(job["run_dir"])
        run_dir.mkdir(parents=True, exist_ok=True)
        result = run_campaign(
            campaign,
            quick=job["quick"],
            seed=job["seed"],
            trace_path=run_dir / "trace.jsonl",
            series_path=run_dir / "series.csv",
        )
        bench_path = write_bench(run_dir, result.bench_doc())
        summary.update(
            {
                "metrics": {k: float(v) for k, v in sorted(result.values.items())},
                "slos_passed": result.passed,
                "slo_failures": [str(c.rule) for c in result.slo_report.failures],
                "seed": result.seed,
                "bench": str(bench_path),
            }
        )
    except Exception as exc:  # noqa: BLE001 - one bad run must not kill the sweep
        summary["error"] = f"{type(exc).__name__}: {exc}"
    summary["wall_s"] = round(time.perf_counter() - t0, 6)
    return summary


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    quick: bool = False,
    out_dir: Path,
    progress=None,
) -> dict:
    """Run every matrix point; returns the merged ``repro-sweep/1`` doc.

    ``jobs`` caps worker processes (clamped to the number of runs;
    ``jobs <= 1`` runs inline with no pool, which is also the
    traceback-friendly debugging mode).  ``progress`` is an optional
    ``fn(summary_dict)`` called as each run finishes.
    """
    out_dir = Path(out_dir)
    runs = spec.runs()
    job_list = [_job_for(run, spec, quick, out_dir) for run in runs]
    effective_jobs = max(1, min(jobs, len(job_list)))

    t0 = time.perf_counter()
    if effective_jobs == 1:
        summaries = []
        for job in job_list:
            summary = _run_one(job)
            if progress is not None:
                progress(summary)
            summaries.append(summary)
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=effective_jobs) as pool:
            if progress is None:
                summaries = pool.map(_run_one, job_list)
            else:
                # Keep merged-document order deterministic (matrix
                # order) while reporting completions as they happen.
                by_id: dict[str, dict] = {}
                for summary in pool.imap_unordered(_run_one, job_list):
                    progress(summary)
                    by_id[summary["run_id"]] = summary
                summaries = [by_id[job["run_id"]] for job in job_list]
    wall = time.perf_counter() - t0

    return make_sweep_doc(
        spec.name,
        quick=quick,
        jobs=effective_jobs,
        axes={k: list(v) for k, v in spec.axes.items()},
        runs=summaries,
        wall_s=wall,
    )
