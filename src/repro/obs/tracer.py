"""Structured tracing for the simulation (the observability substrate).

The paper's whole evaluation is a set of timelines — freeze intervals,
per-phase byte counts, packet gaps, per-node CPU series — yet a
:class:`~repro.core.stats.MigrationReport` only shows the terminal
numbers.  The tracer records *typed, timestamped* records as the
simulation runs: point events (``tracer.event``) and spans with a begin
and an end (``tracer.begin``/``tracer.end`` or the ``tracer.span``
context manager), all stamped with **simulated** time.

Design constraints:

- **Zero overhead when disabled.**  Every :class:`~repro.des.Environment`
  carries :data:`NULL_TRACER` by default, whose methods are no-ops; hot
  call sites additionally guard with ``if tracer.enabled:`` so not even
  a kwargs dict is built on the common path.
- **One tracer per environment.**  All simulated machines share one DES
  environment, so one tracer sees both sides of a migration (source
  engine *and* destination migd) in a single ordered record stream.
- **Plain data.**  A trace is a list of :class:`TraceEvent`; JSONL
  export/import lives in :mod:`repro.obs.export`.

Span names follow a dotted ``layer.phase.action`` taxonomy; the full
vocabulary is documented in ``docs/observability.md``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "TraceEvent",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "cause_id",
]


@dataclass
class TraceEvent:
    """One trace record.

    ``kind`` is ``"event"`` for point events, ``"begin"``/``"end"`` for
    the two edges of a span.  Begin/end edges of the same span share a
    ``span_id``; point events have ``span_id is None``.

    The three causal attributes are set only where the instrumentation
    supplies them (``None`` attributes are omitted from the JSONL):

    - ``parent`` — id of the enclosing span (hierarchy);
    - ``caused_by`` — id of the record that *caused* this one, possibly
      on another node (the cross-node causal edge);
    - ``ref`` — this point event's own causal id, allocated when other
      records need to name it as a cause (spans are referenced by their
      ``span_id`` instead).

    Ids live in one namespace (the tracer's span counter), so a cause
    is unambiguous whether it is a span or a point event.
    """

    time: float
    name: str
    kind: str = "event"
    span_id: Optional[int] = None
    fields: dict[str, Any] = field(default_factory=dict)
    parent: Optional[int] = None
    caused_by: Optional[int] = None
    ref: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"t": self.time, "name": self.name, "kind": self.kind}
        if self.span_id is not None:
            out["span"] = self.span_id
        if self.ref is not None:
            out["ref"] = self.ref
        if self.parent is not None:
            out["parent"] = self.parent
        if self.caused_by is not None:
            out["caused_by"] = self.caused_by
        if self.fields:
            out["fields"] = dict(self.fields)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEvent":
        return cls(
            time=float(d["t"]),
            name=d["name"],
            kind=d.get("kind", "event"),
            span_id=d.get("span"),
            fields=dict(d.get("fields", {})),
            parent=d.get("parent"),
            caused_by=d.get("caused_by"),
            ref=d.get("ref"),
        )


def cause_id(ev: TraceEvent) -> Optional[int]:
    """The id other records use to name ``ev`` as a cause: the span id
    for span edges, the causal ``ref`` for point events."""
    return ev.span_id if ev.span_id is not None else ev.ref


@dataclass
class Span:
    """A matched begin/end pair, reassembled from the event stream."""

    name: str
    span_id: int
    start: float
    #: ``None`` for a span whose end edge was never recorded (e.g. the
    #: migration aborted inside it).
    end: Optional[float]
    fields: dict[str, Any] = field(default_factory=dict)
    #: Causal annotations copied from the begin edge.
    parent: Optional[int] = None
    caused_by: Optional[int] = None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start


class Tracer:
    """Recording tracer: appends :class:`TraceEvent` records.

    ``clock`` is anything with a ``now`` attribute (normally the DES
    :class:`~repro.des.Environment`), read at record time so events are
    stamped with simulated timestamps.

    Every record carries its **causal annotation**: the keyword-only
    ``parent=`` / ``caused_by=`` arguments of :meth:`event` /
    :meth:`begin` are recorded, and ``event(..., ref=True)`` allocates
    a causal id for the point event and returns it.

    ``max_events=N`` bounds tracer memory with a ring buffer: once full,
    the oldest record is dropped per append and counted in
    :attr:`dropped_events` (mirrored into the ``obs.dropped_events``
    metrics counter when the environment has a registry).  The default
    (``None``) keeps the historical unbounded list.
    """

    enabled = True

    def __init__(
        self,
        clock,
        *,
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self._clock = clock
        self.max_events = max_events
        self.dropped_events = 0
        self.events = deque() if max_events is not None else []
        self._next_span_id = 0
        #: ``span_id -> name`` of spans begun but not yet ended, so an
        #: end edge is named even after the ring buffer evicted its begin.
        self._open_spans: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.events)

    def _append(self, ev: TraceEvent) -> None:
        events = self.events
        if self.max_events is not None and len(events) >= self.max_events:
            events.popleft()
            self.dropped_events += 1
            metrics = getattr(self._clock, "metrics", None)
            if metrics is not None:
                metrics.counter("obs.dropped_events").inc()
        events.append(ev)

    # -- recording -----------------------------------------------------------
    # The record name is positional-only so a field can itself be called
    # ``name`` (e.g. a process name) without colliding with it.  The
    # causal keywords (``parent``, ``caused_by``, ``ref``) are reserved
    # and cannot be used as field names.
    def event(
        self,
        name: str,
        /,
        *,
        parent: Optional[int] = None,
        caused_by: Optional[int] = None,
        ref: bool = False,
        **fields,
    ) -> int:
        """Record a point event.

        Returns the event's causal id when ``ref=True``, else 0 — callers
        can thread the return value into later ``caused_by=`` arguments
        unconditionally (0 and ``None`` are both "no cause")."""
        eid = 0
        if ref:
            self._next_span_id += 1
            eid = self._next_span_id
        self._append(
            TraceEvent(
                self._clock.now,
                name,
                "event",
                None,
                fields,
                parent=parent or None,
                caused_by=caused_by or None,
                ref=eid or None,
            )
        )
        return eid

    def begin(
        self,
        name: str,
        /,
        *,
        parent: Optional[int] = None,
        caused_by: Optional[int] = None,
        **fields,
    ) -> int:
        """Open a span; returns its id for the matching :meth:`end`."""
        self._next_span_id += 1
        sid = self._next_span_id
        self._open_spans[sid] = name
        self._append(
            TraceEvent(
                self._clock.now,
                name,
                "begin",
                sid,
                fields,
                parent=parent or None,
                caused_by=caused_by or None,
            )
        )
        return sid

    def end(self, span_id: int, /, **fields) -> None:
        """Close the span opened by :meth:`begin`.  Extra fields are
        attached to the end edge (e.g. byte counts known only then)."""
        name = self._open_spans.pop(span_id, "")
        self._append(TraceEvent(self._clock.now, name, "end", span_id, fields))

    def span(self, name: str, /, **fields):
        """Context manager sugar around :meth:`begin`/:meth:`end`."""
        return _SpanContext(self, name, fields)

    # -- queries -------------------------------------------------------------
    def named(self, name: str) -> list[TraceEvent]:
        """All records with exactly this name."""
        return [e for e in self.events if e.name == name]

    def spans(self, name: Optional[str] = None) -> list[Span]:
        """Reassemble begin/end pairs into :class:`Span` objects."""
        return assemble_spans(self.events, name)

    def clear(self) -> None:
        self.events.clear()


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_fields", "span_id")

    def __init__(self, tracer: Tracer, name: str, fields: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._fields = fields
        self.span_id: Optional[int] = None

    def __enter__(self) -> "_SpanContext":
        self.span_id = self._tracer.begin(self._name, **self._fields)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self.span_id is not None
        if exc_type is None:
            self._tracer.end(self.span_id)
        else:
            self._tracer.end(self.span_id, error=f"{exc_type.__name__}: {exc}")


class NullTracer:
    """Disabled tracer: every method is a no-op.

    This is the default on every environment; call sites that build
    field dicts should still guard with ``if tracer.enabled:`` so the
    disabled path costs one attribute load and a branch.
    """

    enabled = False
    dropped_events = 0
    max_events = None
    events: list = []  # always empty; shared is fine, nobody appends

    def event(self, name: str, /, **fields) -> int:
        return 0

    def begin(self, name: str, /, **fields) -> int:
        return 0

    def end(self, span_id: int, /, **fields) -> None:
        pass

    def span(self, name: str, /, **fields):
        return _NULL_SPAN

    def named(self, name: str) -> list:
        return []

    def spans(self, name: Optional[str] = None) -> list:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


class _NullSpanContext:
    span_id = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanContext()

#: Shared disabled tracer; the default for every Environment.
NULL_TRACER = NullTracer()


def assemble_spans(
    events: list[TraceEvent], name: Optional[str] = None
) -> list[Span]:
    """Pair begin/end edges in an event list into :class:`Span` records
    (also used on streams re-read from JSONL).  Unclosed spans get
    ``end=None``."""
    open_spans: dict[int, Span] = {}
    out: list[Span] = []
    for ev in events:
        if ev.span_id is None:
            continue
        if ev.kind == "begin":
            span = Span(
                ev.name,
                ev.span_id,
                ev.time,
                None,
                dict(ev.fields),
                parent=ev.parent,
                caused_by=ev.caused_by,
            )
            open_spans[ev.span_id] = span
            out.append(span)
        elif ev.kind == "end":
            span = open_spans.pop(ev.span_id, None)
            if span is not None:
                span.end = ev.time
                span.fields.update(ev.fields)
    if name is not None:
        out = [s for s in out if s.name == name]
    return out
