"""Causal-graph assembly and critical-path analysis of migration traces.

The paper's argument is causal — freeze time is short *because* precopy
moved the pages first, degradation is low *because* demand fetches
overlap execution — and this module turns a flat trace into that story:

- :func:`build_causal_graph` assembles the per-session **causal DAG**
  from the ``parent`` / ``caused_by`` annotations the tracer records
  (precopy round → stage, freeze transfer → restore, restore → thaw,
  page fault → demand serve, ...);
- :func:`downtime_critical_path` decomposes a session's downtime window
  (``mig.freeze.enter`` .. ``migd.thaw``) into an exhaustive,
  non-overlapping sequence of labelled segments — signal delivery,
  thread barrier, state serialization, network transfer, destination
  restore — whose durations **sum to exactly the measured downtime**,
  with percentage attribution per segment;
- :func:`total_critical_path` does the same for the whole migration
  using the session state machine's phase windows;
- :func:`degradation_breakdown` collects the service-degradation
  contributors beyond downtime (post-copy fault stalls, auto-converge
  throttle);
- :func:`render_critical_path` renders it all as fixed-width text (the
  ``repro-trace --critical-path`` report).

Methodology (see docs/observability.md): the downtime window is cut at
every span boundary inside it into *elementary segments*; each segment
is attributed to the most specific span covering it (restore beats
transfer beats barrier), and uncovered gaps get positional labels
(``freeze.signal`` before the barrier, ``freeze.serialize`` between
barrier and transfer, ``freeze.other`` elsewhere).  Because the
segments partition the window, attribution always sums to 100% of the
measured downtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .export import MigrationSlice, migration_slices
from .tracer import Span, TraceEvent, cause_id

__all__ = [
    "CausalNode",
    "CausalEdge",
    "CausalGraph",
    "build_causal_graph",
    "PathSegment",
    "CriticalPath",
    "downtime_critical_path",
    "total_critical_path",
    "degradation_breakdown",
    "render_critical_path",
]


# ---------------------------------------------------------------------------
# The causal DAG
# ---------------------------------------------------------------------------
@dataclass
class CausalNode:
    """One vertex: a span or a causally-referenced point event."""

    cid: int
    name: str
    time: float
    #: ``"span"`` or ``"event"``.
    kind: str
    session: Optional[str] = None
    #: End time for spans (``None`` = unfinished); ``None`` for events.
    end: Optional[float] = None
    #: The originating record (begin edge for spans), for consumers that
    #: need fields beyond the causal skeleton (e.g. the Perfetto flows).
    event: Optional[TraceEvent] = None


@dataclass(frozen=True)
class CausalEdge:
    """A directed cause → effect edge.

    ``kind`` is ``"caused_by"`` (a cross-record cause) or ``"parent"``
    (span hierarchy).
    """

    src: int
    dst: int
    kind: str


@dataclass
class CausalGraph:
    """The assembled DAG: nodes by causal id, edges cause → effect."""

    nodes: dict[int, CausalNode] = field(default_factory=dict)
    edges: list[CausalEdge] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)

    def chain(self, cid: int) -> list[CausalNode]:
        """The cause chain ending at ``cid`` (root first): walk incoming
        ``caused_by`` edges backwards, earliest cause first
        when several converge.  Cycle-safe (visited set)."""
        out: list[CausalNode] = []
        seen: set[int] = set()
        cur: Optional[int] = cid
        while cur is not None and cur in self.nodes and cur not in seen:
            seen.add(cur)
            out.append(self.nodes[cur])
            causes = [
                e.src
                for e in self.edges
                if e.dst == cur and e.kind != "parent" and e.src in self.nodes
            ]
            causes.sort(key=lambda c: self.nodes[c].time)
            cur = causes[0] if causes else None
        out.reverse()
        return out


def _node_from_event(ev: TraceEvent, cid: int) -> CausalNode:
    return CausalNode(
        cid=cid,
        name=ev.name,
        time=ev.time,
        kind="span" if ev.span_id is not None else "event",
        session=ev.fields.get("session"),
        event=ev,
    )


def build_causal_graph(
    events: list[TraceEvent], session: Optional[str] = None
) -> CausalGraph:
    """Assemble the causal DAG of a trace (optionally one session's).

    Every span and every point event with a causal ``ref`` or a
    ``caused_by`` becomes a node; the ``parent``/``caused_by``
    annotations become edges.  Point events without a ``ref`` get
    synthetic negative ids (deterministic: allocation order in the
    stream).
    """
    graph = CausalGraph()
    synth = 0

    if session is not None:
        events = [
            ev
            for ev in events
            if ev.fields.get("session") == session
            or (ev.kind == "end" and not ev.fields.get("session"))
        ]

    span_ends: dict[int, float] = {}
    for ev in events:
        if ev.kind == "end" and ev.span_id is not None:
            span_ends[ev.span_id] = ev.time
            continue
        cid = cause_id(ev)
        if cid is None:
            if ev.caused_by is None:
                continue
            synth -= 1
            cid = synth
        if cid not in graph.nodes:
            graph.nodes[cid] = _node_from_event(ev, cid)
        if ev.caused_by is not None:
            graph.edges.append(CausalEdge(ev.caused_by, cid, "caused_by"))
        if ev.parent is not None:
            graph.edges.append(CausalEdge(ev.parent, cid, "parent"))
    for cid, node in graph.nodes.items():
        if node.kind == "span" and cid in span_ends:
            node.end = span_ends[cid]
    return graph


# ---------------------------------------------------------------------------
# Critical paths
# ---------------------------------------------------------------------------
@dataclass
class PathSegment:
    """One labelled, non-overlapping slice of a critical-path window."""

    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """An exhaustive decomposition of a time window into segments.

    The segments partition ``window`` exactly — no gaps, no overlap —
    so :meth:`attribution` always sums to 100% of the window.
    """

    kind: str
    session: Optional[str]
    window: tuple[float, float]
    segments: list[PathSegment] = field(default_factory=list)
    #: Set when the window's closing record is missing (e.g. the trace
    #: ends mid-migration): the window was clamped to the last record.
    truncated: bool = False

    @property
    def total(self) -> float:
        return self.window[1] - self.window[0]

    def attribution(self) -> list[tuple[str, float, float]]:
        """``(label, seconds, percent)`` per label, largest first."""
        sums: dict[str, float] = {}
        for seg in self.segments:
            sums[seg.label] = sums.get(seg.label, 0.0) + seg.duration
        total = self.total
        return sorted(
            (
                (label, secs, (100.0 * secs / total) if total > 0 else 0.0)
                for label, secs in sums.items()
            ),
            key=lambda row: -row[1],
        )


#: (span name, segment label, priority) — higher priority wins where
#: spans overlap inside the downtime window.
_DOWNTIME_SPANS = [
    ("migd.restore", "restore", 3),
    ("mig.freeze.transfer", "network.transfer", 2),
    ("mig.freeze.barrier", "freeze.barrier", 2),
]


def _clip(
    spans: list[Span], t0: float, t1: float, label: str, priority: int
) -> list[tuple[float, float, str, int]]:
    out = []
    for span in spans:
        end = span.end if span.end is not None else t1
        start = max(span.start, t0)
        end = min(end, t1)
        if end > start:
            out.append((start, end, label, priority))
    return out


def downtime_critical_path(sl: MigrationSlice) -> Optional[CriticalPath]:
    """Decompose one session's downtime into labelled segments.

    The window is ``mig.freeze.enter`` .. ``migd.thaw`` (the measured
    downtime).  Returns ``None`` when the slice never froze; a slice
    that froze but never thawed (abort, truncated trace) is analysed up
    to its last record with ``truncated=True``.
    """
    freeze = [e for e in sl.events if e.name == "mig.freeze.enter"]
    if not freeze:
        return None
    t0 = freeze[0].time
    thaw = [e for e in sl.events if e.name == "migd.thaw"]
    truncated = not thaw
    t1 = thaw[0].time if thaw else max(e.time for e in sl.events)
    if t1 <= t0:
        return None
    spans = sl.spans()
    intervals: list[tuple[float, float, str, int]] = []
    for name, label, priority in _DOWNTIME_SPANS:
        intervals.extend(
            _clip([s for s in spans if s.name == name], t0, t1, label, priority)
        )

    barrier_start = min(
        (s.start for s in spans if s.name == "mig.freeze.barrier"),
        default=None,
    )
    transfer_start = min(
        (s.start for s in spans if s.name == "mig.freeze.transfer"),
        default=None,
    )

    def filler(mid: float) -> str:
        if barrier_start is not None and mid < barrier_start:
            return "freeze.signal"
        if transfer_start is not None and mid < transfer_start:
            return "freeze.serialize"
        if transfer_start is None and barrier_start is not None:
            # No transfer span (truncated/aborted mid-freeze): everything
            # after the barrier is serialization-side work.
            return "freeze.serialize"
        return "freeze.other"

    segments = _sweep(intervals, t0, t1, filler)
    return CriticalPath(
        kind="downtime",
        session=sl.session,
        window=(t0, t1),
        segments=segments,
        truncated=truncated,
    )


def _sweep(
    intervals: list[tuple[float, float, str, int]],
    t0: float,
    t1: float,
    filler,
) -> list[PathSegment]:
    """Cut ``[t0, t1]`` at every interval boundary; label each
    elementary segment with the highest-priority covering interval (ties
    break to the later-starting, i.e. more specific, one), or with
    ``filler(midpoint)`` when uncovered; merge equal-label neighbours."""
    bounds = {t0, t1}
    for start, end, _, _ in intervals:
        bounds.add(start)
        bounds.add(end)
    cuts = sorted(b for b in bounds if t0 <= b <= t1)
    segments: list[PathSegment] = []
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2.0
        covering = [iv for iv in intervals if iv[0] <= mid < iv[1]]
        if covering:
            covering.sort(key=lambda iv: (iv[3], iv[0]))
            label = covering[-1][2]
        else:
            label = filler(mid)
        if segments and segments[-1].label == label:
            segments[-1].end = b
        else:
            segments.append(PathSegment(label, a, b))
    return segments


#: session.state ``to`` values, in lifecycle order, mapped to phase labels.
_PHASE_LABELS = {
    "negotiating": "negotiate",
    "precopy": "precopy",
    "freeze": "freeze",
    "restoring": "restore",
    "postcopy": "postcopy",
}


def total_critical_path(sl: MigrationSlice) -> Optional[CriticalPath]:
    """Decompose the whole migration (``mig.start`` .. terminal) by the
    session state machine's phase windows.  Works on any trace (the
    ``session.state`` events are always recorded)."""
    t0 = sl.start.time
    if sl.terminal is not None:
        t1 = sl.terminal.time
        truncated = False
    else:
        t1 = max(e.time for e in sl.events)
        truncated = True
    if t1 <= t0:
        return None
    transitions = [e for e in sl.events if e.name == "session.state"]
    segments: list[PathSegment] = []
    cursor = t0
    label = "negotiate"
    for ev in transitions:
        t = min(max(ev.time, t0), t1)
        if t > cursor:
            segments.append(PathSegment(label, cursor, t))
            cursor = t
        to = str(ev.fields.get("to", ""))
        label = _PHASE_LABELS.get(to, to or "?")
        if to in ("done", "aborted"):
            break
    if cursor < t1:
        segments.append(PathSegment(label, cursor, t1))
    return CriticalPath(
        kind="total",
        session=sl.session,
        window=(t0, t1),
        segments=segments,
        truncated=truncated,
    )


def degradation_breakdown(sl: MigrationSlice) -> dict[str, float]:
    """Service-degradation seconds by contributor for one session.

    - ``downtime`` — the freeze window (``mig.freeze.enter``..``migd.thaw``);
    - ``postcopy.fault_wait`` — cumulative post-copy demand-fetch stall
      (from the ``migd.postcopy.done`` record);
    - ``autoconverge.throttled`` — CPU-share-seconds taken away by the
      auto-converge throttle (from ``mig.autoconverge.release``).
    """
    out: dict[str, float] = {}
    freeze = [e for e in sl.events if e.name == "mig.freeze.enter"]
    thaw = [e for e in sl.events if e.name == "migd.thaw"]
    if freeze and thaw:
        out["downtime"] = thaw[0].time - freeze[0].time
    for ev in sl.events:
        if ev.name == "migd.postcopy.done" and "fault_wait" in ev.fields:
            out["postcopy.fault_wait"] = (
                out.get("postcopy.fault_wait", 0.0)
                + float(ev.fields["fault_wait"])
            )
        elif ev.name == "mig.autoconverge.release":
            out["autoconverge.throttled"] = float(
                ev.fields.get("throttled_seconds", 0.0)
            )
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def render_critical_path(
    events: list[TraceEvent],
    session: Optional[str] = None,
    pid: Optional[int] = None,
) -> str:
    """The ``repro-trace --critical-path`` report: per session, the
    downtime decomposition, the total-time phase attribution, and the
    degradation contributors."""
    from ..analysis.report import render_table

    slices = migration_slices(events)
    if session is not None:
        slices = [s for s in slices if s.session == session]
    if pid is not None:
        slices = [s for s in slices if s.pid == pid]
    if not slices:
        return "(no migrations in trace)"
    blocks: list[str] = []
    for sl in slices:
        ident = sl.session if sl.session is not None else f"pid={sl.pid}"
        down = downtime_critical_path(sl)
        if down is not None:
            rows = [
                [
                    seg.label,
                    f"{(seg.start - down.window[0]) * 1e3:+.3f}",
                    f"{seg.duration * 1e3:.3f}",
                    f"{100.0 * seg.duration / down.total:.1f}%",
                ]
                for seg in down.segments
            ]
            title = (
                f"downtime critical path — {ident} "
                f"({down.total * 1e3:.3f} ms"
                + (", truncated" if down.truncated else "")
                + ")"
            )
            blocks.append(
                render_table(
                    ["segment", "t+ (ms)", "duration (ms)", "share"],
                    rows,
                    title=title,
                )
            )
        else:
            blocks.append(f"(session {ident}: no freeze window in trace)")
        total = total_critical_path(sl)
        if total is not None:
            rows = [
                [label, f"{secs:.6f}", f"{pct:.1f}%"]
                for label, secs, pct in total.attribution()
            ]
            blocks.append(
                render_table(
                    ["phase", "seconds", "share"],
                    rows,
                    title=(
                        f"total-time attribution — {ident} "
                        f"({total.total:.6f} s"
                        + (", truncated" if total.truncated else "")
                        + ")"
                    ),
                )
            )
        degr = degradation_breakdown(sl)
        if degr:
            rows = [
                [label, f"{secs * 1e3:.3f}"]
                for label, secs in sorted(degr.items(), key=lambda kv: -kv[1])
            ]
            blocks.append(
                render_table(
                    ["contributor", "ms"],
                    rows,
                    title=f"degradation contributors — {ident}",
                )
            )
    return "\n\n".join(blocks)
