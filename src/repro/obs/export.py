"""Trace export (JSONL) and plain-text phase-timeline rendering.

One JSONL line per :class:`~repro.obs.tracer.TraceEvent`; field values
that are not JSON-native (IP addresses, endpoints) are stringified, so
a re-read trace is structurally identical but weakly typed.  The
renderers mirror the repo's other report output: fixed-width text, one
table per migration.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .tracer import Span, TraceEvent, Tracer, assemble_spans

__all__ = [
    "TraceParseError",
    "trace_to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "migration_slices",
    "phase_byte_sums",
    "fault_kinds",
    "render_fault_report",
    "plan_strategies",
    "render_plan_report",
    "render_timeline",
    "render_trace_summary",
]

#: Names whose end-edge byte fields reconcile against PhaseBytes.
PRECOPY_ROUND = "mig.precopy.round"
FREEZE_IMAGE = "mig.freeze.image"
SOCK_SUBTRACT = "sock.subtract"
CAPTURE_REQUEST = "capture.request"
MIG_START = "mig.start"
MIG_COMPLETE = "mig.complete"
MIG_ABORT = "mig.abort"
FAULT_INJECTED = "fault.injected"
PLAN_EMITTED = "plan.emitted"
PLAN_ACTION = "plan.action"
PLAN_OUTCOME = "plan.outcome"
PLAN_DEFER = "plan.defer"
PLAN_DROP = "plan.drop"


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def trace_to_jsonl(trace: Union[Tracer, list[TraceEvent]]) -> str:
    """The whole event stream, one JSON object per line."""
    events = trace.events if isinstance(trace, Tracer) else trace
    out = io.StringIO()
    for ev in events:
        out.write(json.dumps(_jsonable(ev.to_dict()), separators=(",", ":")))
        out.write("\n")
    return out.getvalue()


def write_jsonl(path: Union[str, Path], trace: Union[Tracer, list[TraceEvent]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trace_to_jsonl(trace))
    return path


class TraceParseError(ValueError):
    """A trace line that is not a valid :class:`TraceEvent` record.

    Carries the file and 1-based line number so a truncated or corrupt
    trace (killed run, partial copy) fails with *where*, not just a bare
    ``json.JSONDecodeError``.
    """

    def __init__(self, path: Path, lineno: int, reason: str) -> None:
        self.path = path
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"{path}:{lineno}: bad trace record: {reason}")


def read_jsonl(
    path: Union[str, Path], *, skip_bad_lines: bool = False
) -> list[TraceEvent]:
    """Read a JSONL trace back into events.

    Raises :class:`TraceParseError` (with file and line number) on the
    first malformed line; with ``skip_bad_lines=True`` malformed lines
    are dropped instead — the escape hatch for analysing what survives
    of a truncated trace (``repro-trace --skip-bad-lines``).
    """
    path = Path(path)
    events = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            if skip_bad_lines:
                continue
            reason = (
                f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            )
            raise TraceParseError(path, lineno, reason) from exc
    return events


@dataclass
class MigrationSlice:
    """The records of one migration attempt (one ``mig.start`` .. its
    terminal ``mig.complete``/``mig.abort``)."""

    pid: int
    start: TraceEvent
    #: Session id string (``source>dest#pid``); None for traces from
    #: before sessions existed.
    session: Optional[str] = None
    events: list[TraceEvent] = field(default_factory=list)
    terminal: Optional[TraceEvent] = None

    @property
    def strategy(self) -> str:
        return str(self.start.fields.get("strategy", "?"))

    @property
    def succeeded(self) -> Optional[bool]:
        if self.terminal is None:
            return None
        return self.terminal.name == MIG_COMPLETE

    def spans(self, name: Optional[str] = None) -> list[Span]:
        return assemble_spans(self.events, name)


def migration_slices(events: list[TraceEvent]) -> list[MigrationSlice]:
    """Split a stream into per-migration slices, grouped by session.

    A record belongs to the open slice of its ``session`` field (the
    ``source>dest#pid`` session id); records without one — traces from
    before sessions existed, or raw-protocol exercises — fall back to
    grouping by ``pid``.  Span end edges usually carry neither (only
    result fields), so they follow the slice of their *begin* edge.
    Other unattributable records (conductor chatter, transd installs)
    are left out of every slice.

    Session grouping is what keeps *concurrent* migrations apart: two
    in-flight migrations of equal-pid processes land in two slices.
    """
    open_by_key: dict = {}
    #: span_id -> owning slice, for end edges without a session/pid.
    span_owner: dict[int, MigrationSlice] = {}
    out: list[MigrationSlice] = []
    for ev in events:
        pid = ev.fields.get("pid")
        session = ev.fields.get("session")
        key = session if session is not None else pid
        if ev.name == MIG_START and pid is not None:
            sl = MigrationSlice(pid=pid, start=ev, session=session)
            sl.events.append(ev)
            open_by_key[key] = sl
            out.append(sl)
            continue
        if key is None:
            if ev.kind == "end" and ev.span_id is not None:
                sl = span_owner.pop(ev.span_id, None)
                if sl is not None:
                    sl.events.append(ev)
            continue
        sl = open_by_key.get(key)
        if sl is None:
            continue
        sl.events.append(ev)
        if ev.kind == "begin" and ev.span_id is not None:
            span_owner[ev.span_id] = sl
        if ev.name in (MIG_COMPLETE, MIG_ABORT):
            sl.terminal = ev
            del open_by_key[key]
    return out


def phase_byte_sums(sl: MigrationSlice) -> dict[str, int]:
    """Per-phase byte totals recomputed purely from trace records.

    The keys mirror :class:`~repro.core.stats.PhaseBytes`; for a traced
    migration these sums reconcile exactly with the report counters.
    """
    sums = {
        "precopy_pages": 0,
        "precopy_vmas": 0,
        "precopy_sockets": 0,
        "freeze_pages": 0,
        "freeze_vmas": 0,
        "freeze_sockets": 0,
        "freeze_files": 0,
        "freeze_threads": 0,
        "capture_requests": 0,
    }
    for ev in sl.events:
        if ev.name == PRECOPY_ROUND and ev.kind == "end":
            sums["precopy_pages"] += int(ev.fields.get("page_bytes", 0))
            sums["precopy_vmas"] += int(ev.fields.get("vma_bytes", 0))
            sums["precopy_sockets"] += int(ev.fields.get("sock_bytes", 0))
        elif ev.name == FREEZE_IMAGE:
            sums["freeze_pages"] += int(ev.fields.get("page_bytes", 0))
            sums["freeze_vmas"] += int(ev.fields.get("vma_bytes", 0))
            sums["freeze_files"] += int(ev.fields.get("file_bytes", 0))
            sums["freeze_threads"] += int(ev.fields.get("thread_bytes", 0))
        elif ev.name == SOCK_SUBTRACT:
            sums["freeze_sockets"] += int(ev.fields.get("nbytes", 0))
        elif ev.name == CAPTURE_REQUEST:
            sums["capture_requests"] += int(ev.fields.get("nbytes", 0))
    return sums


def fault_kinds(events: list[TraceEvent]) -> list[str]:
    """Fault kinds (``crash``, ``loss``, ...) injected in this trace."""
    return sorted(
        {
            str(ev.fields.get("kind"))
            for ev in events
            if ev.name == FAULT_INJECTED and ev.fields.get("kind") is not None
        }
    )


def render_fault_report(events: list[TraceEvent], kind: Optional[str] = None) -> str:
    """Injected faults and the recovery activity they provoked.

    One row per ``fault.injected`` record (optionally filtered to one
    ``kind``), a per-link impairment rollup of the individual
    ``fault.link.drop``/``fault.link.corrupt`` records, and one row per
    ``recover.*`` decision (detector verdicts, retries, backoffs,
    give-ups) — the same vocabulary docs/faults.md documents.
    """
    from ..analysis.report import render_table

    injected = [ev for ev in events if ev.name == FAULT_INJECTED]
    if kind is not None:
        injected = [ev for ev in injected if ev.fields.get("kind") == kind]
    blocks = []
    if injected:
        rows = [
            [
                f"{ev.time:.6f}",
                ev.fields.get("kind", "?"),
                ev.fields.get("scope", "?"),
                ev.fields.get("target", "?"),
                _fmt_fields(ev.fields, skip=("kind", "scope", "target", "fault")),
            ]
            for ev in injected
        ]
        blocks.append(
            render_table(
                ["t (s)", "kind", "scope", "target", "detail"],
                rows,
                title="Injected faults"
                + (f" (kind={kind})" if kind is not None else ""),
            )
        )
    else:
        blocks.append(
            "(no injected faults in trace)"
            if kind is None
            else f"(no injected faults of kind {kind!r} in trace)"
        )

    drops: dict[str, list[int]] = {}
    for ev in events:
        if ev.name in ("fault.link.drop", "fault.link.corrupt"):
            per = drops.setdefault(str(ev.fields.get("link", "?")), [0, 0, 0])
            per[0 if ev.name.endswith("drop") else 1] += 1
            per[2] += int(ev.fields.get("bytes", 0))
    if drops:
        rows = [
            [link, dropped, corrupted, nbytes]
            for link, (dropped, corrupted, nbytes) in sorted(drops.items())
        ]
        blocks.append(
            render_table(
                ["link", "dropped", "corrupted", "bytes lost"],
                rows,
                title="Link impairments",
            )
        )

    recover = [ev for ev in events if ev.name.startswith("recover.")]
    if recover:
        rows = [
            [
                f"{ev.time:.6f}",
                ev.name[len("recover."):],
                ev.fields.get("node", "?"),
                _fmt_fields(ev.fields, skip=("node",)),
            ]
            for ev in recover
        ]
        blocks.append(
            render_table(
                ["t (s)", "decision", "node", "detail"],
                rows,
                title="Detection & recovery",
            )
        )
    return "\n\n".join(blocks)


def plan_strategies(events: list[TraceEvent]) -> list[str]:
    """Strategy names that emitted ``plan.*`` records in this trace."""
    return sorted(
        {
            str(ev.fields.get("strategy"))
            for ev in events
            if ev.name.startswith("plan.")
            and ev.fields.get("strategy") is not None
        }
    )


def render_plan_report(
    events: list[TraceEvent], strategy: Optional[str] = None
) -> str:
    """The decision plane's story: plans, actions, and their fates.

    Three tables from the ``plan.*`` vocabulary (emitted by the
    conductor's planner, see docs/strategies.md):
    one row per ``plan.emitted``, one row per planned action with its
    eventual outcome (executed / retried / vetoed / aborted, or
    deferred / dropped while parked), and a per-strategy rollup with
    the score distribution (min / mean / max) of its actions.
    Optionally filtered to one strategy name.
    """
    from ..analysis.report import render_table

    plan_events = [ev for ev in events if ev.name.startswith("plan.")]
    if strategy is not None:
        plan_events = [
            ev for ev in plan_events if ev.fields.get("strategy") == strategy
        ]
    if not plan_events:
        return (
            "(no plan.* records in trace — no conductor planner ran while "
            "tracing was on)"
            if strategy is None
            else f"(no plan.* records for strategy {strategy!r} in trace)"
        )

    blocks = []
    emitted = [ev for ev in plan_events if ev.name == PLAN_EMITTED]
    if emitted:
        rows = [
            [
                f"{ev.time:.6f}",
                ev.fields.get("node", "?"),
                ev.fields.get("strategy", "?"),
                ev.fields.get("actions", "?"),
            ]
            for ev in emitted
        ]
        blocks.append(
            render_table(
                ["t (s)", "node", "strategy", "actions"],
                rows,
                title="Plans emitted",
            )
        )

    # Each fate record (outcome, defer or drop) names its action's ref
    # as ``caused_by``; an action's latest fate wins.
    fates: dict[int, str] = {}
    for ev in plan_events:
        if ev.name == PLAN_OUTCOME:
            fates[ev.caused_by] = str(ev.fields.get("outcome", "?"))
        elif ev.name == PLAN_DEFER:
            fates[ev.caused_by] = "deferred"
        elif ev.name == PLAN_DROP:
            fates[ev.caused_by] = f"dropped ({ev.fields.get('reason', '?')})"

    def fate_of(action: TraceEvent) -> str:
        return fates.get(action.ref, "pending") if action.ref else "pending"

    actions = [ev for ev in plan_events if ev.name == PLAN_ACTION]
    if actions:
        rows = []
        for ev in actions:
            nb = ev.fields.get("not_before", 0.0) or 0.0
            rows.append(
                [
                    f"{ev.time:.6f}",
                    ev.fields.get("node", "?"),
                    ev.fields.get("strategy", "?"),
                    f"{ev.fields.get('proc', '?')} (pid {ev.fields.get('pid', '?')})",
                    ev.fields.get("dest") or "-",
                    f"{float(ev.fields.get('score', 0.0)):.2f}",
                    f"{float(nb):.1f}" if nb else "-",
                    fate_of(ev),
                ]
            )
        blocks.append(
            render_table(
                [
                    "t (s)",
                    "node",
                    "strategy",
                    "process",
                    "dest",
                    "score",
                    "not before",
                    "fate",
                ],
                rows,
                title="Planned actions",
            )
        )

    # Per-strategy rollup: action counts by fate + score distribution.
    per: dict[str, dict] = {}
    for ev in actions:
        s = str(ev.fields.get("strategy", "?"))
        agg = per.setdefault(s, {"scores": [], "fates": {}})
        agg["scores"].append(float(ev.fields.get("score", 0.0)))
        fate = fate_of(ev).split(" ")[0]
        agg["fates"][fate] = agg["fates"].get(fate, 0) + 1
    if per:
        rows = []
        for s in sorted(per):
            scores = per[s]["scores"]
            fates_s = " ".join(
                f"{k}={v}" for k, v in sorted(per[s]["fates"].items())
            )
            rows.append(
                [
                    s,
                    len(scores),
                    f"{min(scores):.2f}",
                    f"{sum(scores) / len(scores):.2f}",
                    f"{max(scores):.2f}",
                    fates_s,
                ]
            )
        blocks.append(
            render_table(
                ["strategy", "actions", "score min", "mean", "max", "fates"],
                rows,
                title="Per-strategy score distribution",
            )
        )
    return "\n\n".join(blocks)


def _fmt_fields(fields: dict, skip=("pid", "session")) -> str:
    parts = []
    for k, v in fields.items():
        if k in skip:
            continue
        if isinstance(v, float):
            v = f"{v:.6g}"
        parts.append(f"{k}={v}")
    return " ".join(parts)


def render_timeline(
    events: list[TraceEvent],
    pid: Optional[int] = None,
    max_rows: int = 200,
    session: Optional[str] = None,
) -> str:
    """Per-migration phase timelines: each record at its offset (ms)
    from the migration's start, spans with their durations.  One block
    per session, so interleaved concurrent migrations stay separate."""
    from ..analysis.report import render_table

    slices = migration_slices(events)
    if pid is not None:
        slices = [s for s in slices if s.pid == pid]
    if session is not None:
        slices = [s for s in slices if s.session == session]
    if not slices:
        return "(no migrations in trace)"
    blocks = []
    for sl in slices:
        t0 = sl.start.time
        rows = []
        ended = {
            e.span_id for e in sl.events if e.kind == "end" and e.span_id is not None
        }
        spans_by_id = {s.span_id: s for s in sl.spans()}
        for ev in sl.events:
            if ev.kind == "end":
                continue  # folded into the begin row below
            label = ev.name
            detail = _fmt_fields(ev.fields)
            if ev.kind == "begin":
                span = spans_by_id.get(ev.span_id)
                if span is not None and span.end is not None:
                    detail = (
                        f"[{(span.end - span.start) * 1e3:.3f} ms] "
                        + _fmt_fields(span.fields)
                    ).strip()
                elif ev.span_id not in ended:
                    detail = "[unfinished] " + detail
            rows.append([f"{(ev.time - t0) * 1e3:+.3f}", label, detail])
        dropped = max(0, len(rows) - max_rows)
        if dropped:
            rows = rows[: max_rows // 2] + rows[-(max_rows - max_rows // 2):]
        status = {True: "success", False: "aborted", None: "unfinished"}[sl.succeeded]
        ident = (
            f"session={sl.session}"
            if sl.session is not None
            else (
                f"pid={sl.pid} "
                f"{sl.start.fields.get('source', '?')}->{sl.start.fields.get('dest', '?')}"
            )
        )
        title = (
            f"migration {ident} strategy={sl.strategy} "
            f"start={t0:.6f}s [{status}]"
            + (f" ({dropped} rows elided)" if dropped else "")
        )
        blocks.append(
            render_table(["t+ (ms)", "record", "detail"], rows, title=title)
        )
    return "\n\n".join(blocks)


def render_trace_summary(events: list[TraceEvent]) -> str:
    """One row per migration: phases, rounds, downtime, byte totals."""
    from ..analysis.report import render_table

    rows = []
    for sl in migration_slices(events):
        rounds = [s for s in sl.spans(PRECOPY_ROUND) if s.end is not None]
        freeze = [e for e in sl.events if e.name == "mig.freeze.enter"]
        thaw = [e for e in sl.events if e.name == "migd.thaw"]
        downtime_ms = (
            (thaw[0].time - freeze[0].time) * 1e3 if freeze and thaw else float("nan")
        )
        sums = phase_byte_sums(sl)
        precopy_bytes = (
            sums["precopy_pages"] + sums["precopy_vmas"] + sums["precopy_sockets"]
        )
        freeze_bytes = (
            sums["freeze_pages"]
            + sums["freeze_vmas"]
            + sums["freeze_sockets"]
            + sums["freeze_files"]
            + sums["freeze_threads"]
        )
        status = {True: "ok", False: "abort", None: "?"}[sl.succeeded]
        rows.append(
            [
                sl.session if sl.session is not None else "-",
                sl.pid,
                sl.strategy,
                f"{sl.start.fields.get('source', '?')}->{sl.start.fields.get('dest', '?')}",
                len(rounds),
                f"{downtime_ms:.3f}" if downtime_ms == downtime_ms else "-",
                precopy_bytes,
                freeze_bytes,
                sums["capture_requests"],
                status,
            ]
        )
    if not rows:
        return "(no migrations in trace)"
    return render_table(
        [
            "session",
            "pid",
            "strategy",
            "route",
            "rounds",
            "downtime (ms)",
            "precopy B",
            "freeze B",
            "capture B",
            "result",
        ],
        rows,
        title="Trace summary: one row per migration",
    )
