"""``repro-dash``: a terminal dashboard over exported run telemetry.

Renders, from the files a run leaves behind, the cluster view an
operator would want while watching a migration wave:

- **per-node panel** — the latest ``node.<ip>.*`` sampler values from a
  metrics CSV (the :func:`repro.analysis.export.series_to_csv` format),
  one row per node: run queue, CPU utilisation, established
  connections, TCP queue bytes, IP drops, capture-buffer occupancy,
  peer-database staleness;
- **per-session panel** — one row per migration session from a JSONL
  trace (strategy, route, rounds, downtime, bytes, outcome);
- **planner panel** — the decision plane, when the trace carries
  ``plan.*`` records: one row per (node, strategy) with plans emitted,
  actions and their fates (executed/retried/vetoed/aborted/deferred/
  dropped);
- **SLO panel** — optional declarative rules (``--slo "name < x"``)
  evaluated against the latest metric values.

Usage::

    repro-dash --metrics run.csv --trace run.jsonl
    repro-dash --metrics run.csv --slo "node.10.0.0.1.ip.drops == 0"
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

__all__ = [
    "main",
    "build_parser",
    "render_node_panel",
    "render_planner_panel",
    "render_scenario_panel",
    "latest_values",
    "split_node_metric",
]

#: (column header, ``node.<ip>.`` metric suffix, format) for the node panel.
_NODE_COLUMNS = [
    ("runq", "sched.runq", "{:.0f}"),
    ("cpu%", "sched.cpu_util", "{:.1f}"),
    ("procs", "sched.nprocs", "{:.0f}"),
    ("estab", "tcp.established", "{:.0f}"),
    ("sendq B", "tcp.send_q_bytes", "{:.0f}"),
    ("recvq B", "tcp.recv_q_bytes", "{:.0f}"),
    ("ooo B", "tcp.ooo_q_bytes", "{:.0f}"),
    ("drops", "ip.drops", "{:.0f}"),
    ("capture B", "netfilter.capture_queued", "{:.0f}"),
    ("peer stale s", "cond.peer_staleness_s", "{:.2f}"),
]


def latest_values(cols: dict[str, list[float]]) -> dict[str, float]:
    """The last sample of every series (empty series are dropped)."""
    return {name: vals[-1] for name, vals in cols.items() if vals}


def split_node_metric(name: str) -> Optional[tuple[str, str]]:
    """``node.192.168.0.1.sched.runq`` -> ``("192.168.0.1", "sched.runq")``.

    The IP itself is dotted, so the address is the run of leading
    all-digit components.  ``None`` for non-``node.*`` names.
    """
    if not name.startswith("node."):
        return None
    parts = name[len("node."):].split(".")
    i = 0
    while i < len(parts) and parts[i].isdigit():
        i += 1
    if i == 0 or i >= len(parts):
        return None
    return ".".join(parts[:i]), ".".join(parts[i:])


def render_node_panel(cols: dict[str, list[float]], at_time: Optional[float] = None) -> str:
    """One row per node from the ``node.<ip>.*`` series' latest samples."""
    from ..analysis.report import render_table

    latest = latest_values(cols)
    nodes: dict[str, dict[str, float]] = {}
    for name, value in latest.items():
        parsed = split_node_metric(name)
        if parsed is None:
            continue
        ip, metric = parsed
        nodes.setdefault(ip, {})[metric] = value
    if not nodes:
        return "(no node.<ip>.* series in metrics export)"
    rows = []
    for ip in sorted(nodes):
        row = [ip]
        for _, suffix, fmt in _NODE_COLUMNS:
            value = nodes[ip].get(suffix)
            row.append("-" if value is None else fmt.format(value))
        rows.append(row)
    title = "Nodes"
    if at_time is not None:
        title += f" (latest sample, t={at_time:.3f}s)"
    return render_table(
        ["node"] + [c[0] for c in _NODE_COLUMNS], rows, title=title
    )


def render_planner_panel(events) -> str:
    """Decision-plane rollup from the trace's ``plan.*`` records.

    One row per (node, strategy): plans emitted, actions planned, and a
    fate tally.  Empty string when the trace has no ``plan.*`` records
    (no planner produced a plan with actions while tracing was on).
    """
    from ..analysis.report import render_table

    per: dict[tuple[str, str], dict[str, int]] = {}

    def agg(ev) -> dict[str, int]:
        key = (
            str(ev.fields.get("node", "?")),
            str(ev.fields.get("strategy", "?")),
        )
        return per.setdefault(
            key, {"plans": 0, "actions": 0, "deferred": 0, "dropped": 0}
        )

    for ev in events:
        if not ev.name.startswith("plan."):
            continue
        if ev.name == "plan.emitted":
            agg(ev)["plans"] += 1
        elif ev.name == "plan.action":
            agg(ev)["actions"] += 1
        elif ev.name == "plan.defer":
            agg(ev)["deferred"] += 1
        elif ev.name == "plan.drop":
            agg(ev)["dropped"] += 1
        elif ev.name == "plan.outcome":
            a = agg(ev)
            outcome = str(ev.fields.get("outcome", "?"))
            a[outcome] = a.get(outcome, 0) + 1
    if not per:
        return ""
    fate_cols = ["executed", "retried", "vetoed", "aborted", "deferred", "dropped"]
    rows = []
    for (node, strategy) in sorted(per):
        counts = per[(node, strategy)]
        rows.append(
            [node, strategy, counts["plans"], counts["actions"]]
            + [counts.get(f, 0) for f in fate_cols]
        )
    return render_table(
        ["node", "strategy", "plans", "actions"] + fate_cols,
        rows,
        title="Planner",
    )


def render_scenario_panel(cols: dict[str, list[float]], campaign: str = "") -> str:
    """Workload view from the ``scenario.*`` series a
    :class:`~repro.scenarios.driver.ScenarioDriver` exports: offered vs
    achieved population over the window, and one row per zone with its
    latest / peak client count.

    ``campaign`` selects the ``scenario.<campaign>.*`` namespace a
    campaign-tagged driver records; empty reads the bare ``scenario.*``
    series.  Empty string when the export carries no such series.
    """
    from ..analysis.report import render_kv, render_table
    from ..scenarios.driver import series_prefix

    prefix = series_prefix(campaign)
    offered = cols.get(f"{prefix}offered") or []
    achieved = cols.get(f"{prefix}achieved") or []
    zone_head, zone_tail = f"{prefix}zone.", ".clients"
    zones: dict[int, list[float]] = {}
    for name, vals in cols.items():
        if name.startswith(zone_head) and name.endswith(zone_tail) and vals:
            zone_id = name[len(zone_head): -len(zone_tail)]
            if zone_id.isdigit():
                zones[int(zone_id)] = vals
    if not offered and not zones:
        return ""

    panels = []
    if offered:
        summary = {
            "offered (latest)": offered[-1],
            "offered (peak)": max(offered),
            "offered (mean)": round(sum(offered) / len(offered), 1),
        }
        if achieved:
            summary["achieved (latest)"] = achieved[-1]
            gap = sum(o - a for o, a in zip(offered, achieved))
            total = sum(offered)
            summary["achieved/offered"] = (
                round(1.0 - gap / total, 4) if total > 0 else 1.0
            )
        title = "Scenario" + (f" [{campaign}]" if campaign else "")
        panels.append(render_kv(summary, title=title))
    if zones:
        rows = [
            [z, f"{vals[-1]:.0f}", f"{max(vals):.0f}", f"{min(vals):.0f}"]
            for z, vals in sorted(zones.items())
        ]
        panels.append(
            render_table(
                ["zone", "clients", "peak", "min"], rows, title="Zone population"
            )
        )
    return "\n\n".join(panels)


def _render_other_metrics(cols: dict[str, list[float]]) -> str:
    from ..analysis.report import render_kv

    other = {
        name: value
        for name, value in sorted(latest_values(cols).items())
        if not name.startswith(("node.", "scenario."))
    }
    if not other:
        return ""
    return render_kv(other, title="Other metrics (latest)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dash",
        description="Per-node / per-session dashboard from trace + metrics exports.",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help="metrics CSV (series_to_csv format: time,<name>,...)",
    )
    parser.add_argument("--trace", type=Path, default=None, help="JSONL trace file")
    parser.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="RULE",
        help="SLO rule ('metric op threshold') checked against the latest "
        "metric values; repeatable",
    )
    parser.add_argument(
        "--session",
        default=None,
        help="limit the session panel to one migration session id",
    )
    parser.add_argument(
        "--campaign",
        default=None,
        help="read the scenario panel from the scenario.<campaign>.* series "
        "(a campaign-tagged run); default reads the bare scenario.* series",
    )
    parser.add_argument(
        "--sweep",
        type=Path,
        default=None,
        help="merged repro-sweep/1 document (SWEEP_<name>.json); renders the "
        "cross-run comparison table",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.metrics is None and args.trace is None and args.sweep is None:
        print("repro-dash: need --metrics, --trace and/or --sweep", file=sys.stderr)
        return 2
    panels: list[str] = []
    cols: dict[str, list[float]] = {}

    if args.sweep is not None:
        from ..sweep.merge import read_sweep, render_sweep_table

        if not args.sweep.exists():
            print(f"repro-dash: no such file: {args.sweep}", file=sys.stderr)
            return 2
        try:
            doc = read_sweep(args.sweep)
        except ValueError as exc:
            print(
                f"repro-dash: {args.sweep} is not a repro-sweep/1 document: {exc}",
                file=sys.stderr,
            )
            return 2
        panels.append(render_sweep_table(doc))

    if args.metrics is not None:
        from ..analysis.export import read_series_csv

        if not args.metrics.exists():
            print(f"repro-dash: no such file: {args.metrics}", file=sys.stderr)
            return 2
        try:
            times, cols = read_series_csv(args.metrics.read_text())
        except ValueError as exc:
            print(f"repro-dash: {args.metrics}: {exc}", file=sys.stderr)
            return 2
        panels.append(render_node_panel(cols, at_time=times[-1] if times else None))
        scenario = render_scenario_panel(cols, campaign=args.campaign or "")
        if scenario:
            panels.append(scenario)
        elif args.campaign is not None:
            print(
                f"repro-dash: no scenario.{args.campaign}.* series in "
                f"{args.metrics}",
                file=sys.stderr,
            )
            return 3
        other = _render_other_metrics(cols)
        if other:
            panels.append(other)

    if args.trace is not None:
        from .export import migration_slices, read_jsonl, render_trace_summary

        if not args.trace.exists():
            print(f"repro-dash: no such file: {args.trace}", file=sys.stderr)
            return 2
        try:
            events = read_jsonl(args.trace)
        except (ValueError, KeyError, TypeError) as exc:
            print(
                f"repro-dash: {args.trace} is not a JSONL trace: {exc}",
                file=sys.stderr,
            )
            return 2
        if args.session is not None:
            keep = {args.session}
            events = [
                ev
                for ev in events
                if ev.fields.get("session") in keep or ev.fields.get("session") is None
            ]
            if not any(s.session in keep for s in migration_slices(events)):
                print(
                    f"repro-dash: no such session {args.session!r} in {args.trace}",
                    file=sys.stderr,
                )
                return 3
        panels.append(render_trace_summary(events))
        planner = render_planner_panel(events)
        if planner:
            panels.append(planner)
        from .causal import render_critical_path

        critical = render_critical_path(events, session=args.session)
        if critical and not critical.startswith("(no migrations"):
            panels.append(critical)

    rc = 0
    if args.slo:
        from .slo import evaluate_slos

        try:
            report = evaluate_slos(args.slo, latest_values(cols))
        except ValueError as exc:
            print(f"repro-dash: {exc}", file=sys.stderr)
            return 2
        panels.append(report.render())
        if not report.passed:
            rc = 1

    print("\n\n".join(p for p in panels if p))
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
