"""The discrete-event simulation environment (clock + event heap)."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Generator, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from .events import NORMAL, URGENT, AllOf, Event, Timeout
from .process import Process

__all__ = ["Environment", "StopSimulation"]


class StopSimulation(Exception):
    """Raised to stop :meth:`Environment.run` when its ``until`` event fires."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event._ok:
            raise cls(event._value)
        raise event._value


class Environment:
    """Execution environment of a simulation.

    Time passes only by processing events: :attr:`now` jumps from one
    scheduled event to the next.  All simulated components (kernels, NICs,
    daemons) share one environment.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Any]] = []
        self._eid = 0
        #: Heap key of the event being (or last) processed: the popped
        #: entry itself, so the run loop pays one store per event.  Work
        #: kept off the heap (see :meth:`_passed`) compares its reserved
        #: ``(time, NORMAL, eid, ...)`` key against it.
        self._at: tuple = (self._now, URGENT - 1, 0)
        #: The largest key popped before an URGENT entry scheduled at the
        #: current instant, which pops after it with a smaller key.
        self._floor: tuple = self._at
        #: Latest time of any entry kept off the heap: a run that empties
        #: the heap ends there, as it would have with those entries on it.
        self._tail = self._now
        #: The generator of every process (and every cohort member, keyed
        #: by its generator) that has not finished, in creation order, so
        #: :meth:`close` can close the suspended ones deterministically.
        self._live: dict[Any, Generator] = {}
        self._closed = False
        #: Structured tracer (see :mod:`repro.obs`).  The default is the
        #: shared no-op tracer; call :meth:`enable_tracing` to record.
        #: Hot call sites guard with ``if env.tracer.enabled:``.
        self.tracer = NULL_TRACER
        #: Metrics registry, created lazily by :meth:`enable_metrics`.
        self._metrics: Optional[MetricsRegistry] = None
        #: Armed fault-injection plane (:class:`repro.faults.FaultInjector`)
        #: or ``None``.  Components with designated fault points (e.g.
        #: :meth:`repro.core.session.MigrationSession.transition`) consult
        #: it; everything stays a no-op while it is ``None``.
        self.faults = None
        #: The world's process and thread ids: they reach traces and
        #: reports, so they count from the same start in every world.
        self.pids = itertools.count(1000)
        self.tids = itertools.count(100)

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- observability -------------------------------------------------------
    def enable_tracing(
        self,
        tracer: Optional[Tracer] = None,
        *,
        max_events: Optional[int] = None,
    ) -> Tracer:
        """Attach a recording :class:`~repro.obs.Tracer` (and return it).

        Until this is called, :attr:`tracer` is the shared no-op tracer
        and instrumented components pay only an attribute load plus a
        branch per would-be record.  ``max_events=N`` bounds tracer
        memory with a ring buffer (see :class:`~repro.obs.Tracer`).
        """
        if tracer is None:
            tracer = Tracer(self, max_events=max_events)
        self.tracer = tracer
        return self.tracer

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The metrics registry, or ``None`` when metrics are disabled.
        Components register gauges only when this is not ``None``."""
        return self._metrics

    def enable_metrics(self) -> MetricsRegistry:
        """Create (or fetch) the environment's metrics registry.

        Call *before* building hosts/daemons: they register their gauges
        at construction time if the registry exists.
        """
        if self._metrics is None:
            self._metrics = MetricsRegistry()
        return self._metrics

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn a new simulated process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue ``event`` for processing after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if priority < NORMAL and self._at > self._floor:
            self._floor = self._at
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def call_later(self, delay: float, fn, arg: Any = None) -> None:
        """Schedule a bare ``fn(arg)`` call ``delay`` seconds from now.

        The one-shot fast path for hot single-waiter sites (packet
        delivery, TCP timers): one deferred-call heap entry (see
        :mod:`.events`) instead of Event + callback list + closure.  Consumes an
        event id exactly like :meth:`schedule`, so converting a call
        site from ``event()``+``schedule`` preserves same-tick ordering
        (and therefore trace-level determinism) bit for bit.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, NORMAL, self._eid, (fn, arg)))

    def _passed(self) -> tuple:
        """The heap key of the latest event processed.

        An entry kept off the heap with the reserved key
        ``(time, NORMAL, eid, ...)`` has taken effect iff it sorts below
        this key (event ids are unique, so the comparison never reaches
        the fourth element).  Lazily kept broadcast copies
        (:meth:`repro.net.Interface.deliver_skipped`) use it.
        """
        at = self._at
        return at if at > self._floor else self._floor

    # -- lifetime -----------------------------------------------------------
    def close(self) -> None:
        """End the simulation for good and release what it holds.

        Detaches the tracer, the metrics registry and the fault plane
        (callers that kept them can still read them), drops every pending
        heap entry and closes every suspended process generator (its
        ``finally`` blocks run), so nothing the environment holds keeps
        the simulated world reachable.  Nothing is scheduled:
        anything a ``finally`` block schedules is dropped too.  :attr:`now`
        and the count of event ids taken minus entries left queued
        (``_eid - len(_queue)``) are kept; timers and broadcast copies
        kept lazily take ids without heap entries, so that count is not
        the number of heap entries popped.
        A :meth:`run` after this raises :class:`RuntimeError`; a second
        ``close`` does nothing.  Call it between runs, never from inside
        a process.
        """
        if self._closed:
            return
        self._closed = True
        self.tracer = NULL_TRACER
        self._metrics = None
        self.faults = None
        processed = self._eid - len(self._queue)
        self._queue.clear()
        live = self._live
        while live:  # a ``finally`` block may spawn a process
            generators = list(live.values())
            live.clear()
            for generator in generators:
                generator.close()
        self._queue.clear()
        self._eid = processed
        self._at = self._passed()[:3]
        self._floor = self._at

    # -- run loop -----------------------------------------------------------
    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be a point in simulated time, an :class:`Event`
        (return its value once it is processed), or ``None`` (run until
        the heap is empty).
        """
        if self._closed:
            raise RuntimeError("the environment is closed")
        at: Optional[Event]
        if until is None:
            at = None
        elif isinstance(until, Event):
            at = until
            if at.callbacks is None:
                # Already processed: nothing to run.  Mirror the
                # fail-during-run path exactly: a failed 'until' event
                # re-raises its exception instead of returning it.
                if at._ok:
                    return at.value
                raise at._value
            at.callbacks.append(StopSimulation.callback)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until ({horizon}) must not be earlier than now ({self._now})"
                )
            if horizon == self._now:
                # Zero-delay horizon: nothing can run strictly before
                # now, so don't touch the heap at all (callers poll with
                # ``run(until=env.now)`` in settle loops).
                return None
            at = Event(self)
            at._ok = True
            at._value = None
            # URGENT so the horizon event beats same-time NORMAL events.
            self.schedule(at, delay=horizon - self._now, priority=URGENT)
            at.callbacks.append(StopSimulation.callback)

        # The per-event overhead of this loop bounds total simulation
        # throughput, so it is kept flat: no per-event method call.
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                self._now, _, _, event = self._at = pop(queue)
                if type(event) is tuple:
                    fn, arg = event
                    fn(arg)
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # An un-handled failure crashes the simulation: it is
                    # a bug in the model, never a modelled condition.
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0]
        # The heap ran dry: whatever was kept off it has taken effect.
        if self._tail > self._now:
            self._now = self._tail
        self._at = (self._now, NORMAL, self._eid + 1)
        if at is not None and not at.triggered:
            if isinstance(until, Event):
                raise RuntimeError(
                    "simulation ran out of events before the 'until' "
                    "event was triggered"
                )
        return None
