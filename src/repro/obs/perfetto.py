"""Chrome trace-event (Perfetto) export of migration traces.

:func:`to_chrome_trace` converts a trace into the `Chrome trace-event
JSON format`_ that ``chrome://tracing`` and https://ui.perfetto.dev load
directly:

- one **process row per cluster node** (plus one for cluster-level
  control records), named via ``M`` metadata events;
- one **thread row per migration session** on each node it touches, so
  concurrent migrations stack instead of interleaving;
- spans become balanced ``B``/``E`` duration pairs (an unfinished span
  is closed at the trace's last timestamp with ``"unfinished": true``);
- point records become ``i`` instants (``fault.*`` get global scope so
  they draw full-height markers);
- cross-node causal edges — the ``caused_by`` annotations
  :func:`~repro.obs.causal.build_causal_graph` collects — become
  ``s``/``f`` flow arrows, so the freeze transfer visibly hands off to
  the destination restore.

Timestamps are simulated seconds scaled to microseconds (the format's
unit); ``displayTimeUnit`` is milliseconds to match the paper's axes.

.. _Chrome trace-event JSON format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .causal import build_causal_graph
from .tracer import TraceEvent

__all__ = ["to_chrome_trace", "write_chrome_trace"]

#: Fallback process row for records not attributable to a node.
_CONTROL = "cluster"

#: Name prefixes of records emitted by the *destination* side.
_DEST_PREFIXES = ("migd.", "pagefaultd.", "capture.reinject")


def _split_session(session) -> tuple[Optional[str], Optional[str]]:
    """``"src>dst#pid"`` → ``(src, dst)``; ``(None, None)`` otherwise."""
    if not isinstance(session, str) or ">" not in session:
        return None, None
    pair = session.split("#", 1)[0]
    src, _, dst = pair.partition(">")
    return src or None, dst or None


def event_node(ev: TraceEvent) -> str:
    """Which node's track a record belongs on.

    An explicit ``node`` field wins; otherwise destination-daemon
    records (``migd.*``, ``pagefaultd.*``, ``capture.reinject``) go to
    the session's destination and everything else to its source; records
    with neither land on the cluster-level control track.
    """
    node = ev.fields.get("node")
    if node:
        return str(node)
    src, dst = _split_session(ev.fields.get("session"))
    if ev.name.startswith(_DEST_PREFIXES):
        return dst or _CONTROL
    return src or _CONTROL


def _us(t: float) -> float:
    return t * 1e6


def to_chrome_trace(events: list[TraceEvent]) -> dict:
    """Build the ``{"traceEvents": [...]}`` document for a trace."""
    out: list[dict] = []
    if events:
        t_max = max(ev.time for ev in events)
    else:
        t_max = 0.0

    # Track allocation: pid per node, tid per (node, session lane).
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}

    def pid_of(node: str) -> int:
        if node not in pids:
            pids[node] = len(pids) + 1
            out.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[node],
                    "tid": 0,
                    "args": {"name": node},
                }
            )
        return pids[node]

    def tid_of(node: str, session) -> int:
        lane = str(session) if session else "(node)"
        key = (node, lane)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == node]) + 1
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid_of(node),
                    "tid": tids[key],
                    "args": {"name": lane},
                }
            )
        return tids[key]

    def args_of(ev: TraceEvent) -> dict:
        return {
            k: v
            for k, v in ev.fields.items()
            if k not in ("session", "node")
        }

    # Spans first need their begin edges indexed so the end edge lands
    # on the same track, and unfinished spans get a closing edge.
    open_spans: dict[int, tuple[str, int, int]] = {}
    for ev in events:
        if ev.kind == "begin" and ev.span_id is not None:
            node = event_node(ev)
            pid = pid_of(node)
            tid = tid_of(node, ev.fields.get("session"))
            open_spans[ev.span_id] = (node, pid, tid)
            out.append(
                {
                    "ph": "B",
                    "name": ev.name,
                    "cat": ev.name.split(".", 1)[0],
                    "ts": _us(ev.time),
                    "pid": pid,
                    "tid": tid,
                    "args": args_of(ev),
                }
            )
        elif ev.kind == "end" and ev.span_id is not None:
            track = open_spans.pop(ev.span_id, None)
            if track is None:
                continue
            _, pid, tid = track
            out.append(
                {
                    "ph": "E",
                    "name": ev.name,
                    "ts": _us(ev.time),
                    "pid": pid,
                    "tid": tid,
                    "args": args_of(ev),
                }
            )
        else:
            node = event_node(ev)
            out.append(
                {
                    "ph": "i",
                    "name": ev.name,
                    "cat": ev.name.split(".", 1)[0],
                    "s": "g" if ev.name.startswith("fault.") else "t",
                    "ts": _us(ev.time),
                    "pid": pid_of(node),
                    "tid": tid_of(node, ev.fields.get("session")),
                    "args": args_of(ev),
                }
            )
    # Close spans the trace ended inside of — B without E renders as
    # zero-width in some viewers.
    for _span_id, (_, pid, tid) in sorted(open_spans.items()):
        out.append(
            {
                "ph": "E",
                "name": "(unfinished)",
                "ts": _us(t_max),
                "pid": pid,
                "tid": tid,
                "args": {"unfinished": True},
            }
        )

    # Flow arrows for cross-node causal edges (e.g. the freeze-transfer
    # → restore handoff).
    graph = build_causal_graph(events)
    flow_id = 0
    for edge in graph.edges:
        if edge.kind == "parent":
            continue
        src = graph.nodes.get(edge.src)
        dst = graph.nodes.get(edge.dst)
        if src is None or dst is None or src.event is None or dst.event is None:
            continue
        src_node = event_node(src.event)
        dst_node = event_node(dst.event)
        if src_node == dst_node:
            continue
        flow_id += 1
        # Flow starts bind at the *end* of the causing span (the moment
        # the effect could begin) and at the event time for points —
        # clamped to the effect time, since an effect can land mid-span
        # (a staging record arrives before its round span closes).
        start_ts = src.end if src.end is not None else src.time
        start_ts = min(start_ts, dst.time)
        out.append(
            {
                "ph": "s",
                "name": f"{src.name} -> {dst.name}",
                "cat": "causal",
                "id": flow_id,
                "ts": _us(start_ts),
                "pid": pid_of(src_node),
                "tid": tid_of(src_node, src.event.fields.get("session")),
            }
        )
        out.append(
            {
                "ph": "f",
                "bp": "e",
                "name": f"{src.name} -> {dst.name}",
                "cat": "causal",
                "id": flow_id,
                "ts": _us(dst.time),
                "pid": pid_of(dst_node),
                "tid": tid_of(dst_node, dst.event.fields.get("session")),
            }
        )

    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(path, events: list[TraceEvent]) -> Path:
    """Write :func:`to_chrome_trace` output to ``path`` (parents
    created), returning the resolved path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = to_chrome_trace(events)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path
