"""Event primitives for the discrete-event simulation kernel.

The design follows the classic callback-event model (as popularized by
SimPy): an :class:`Event` is a one-shot value container that may *succeed*
or *fail*; callbacks registered on it run when the environment processes
it.  :class:`AllOf` lets a process wait on several events at once.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

__all__ = ["Event", "Timeout", "AllOf", "EventAlreadyTriggered"]

#: Sentinel stored in :attr:`Event._value` before the event has a value.
PENDING = object()

#: Scheduling priorities (lower runs first at equal simulation time).
URGENT = 0
NORMAL = 1

#: A heap entry is ``(time, priority, event id, what)``: ``what`` is an
#: :class:`Event`, or the pair ``(fn, arg)`` of a *deferred call*, the
#: cheap entry for one-shot work (packet delivery, TCP timers) that the
#: run loop runs as ``fn(arg)``.  A pair is a tuple literal: no object
#: to initialize, no callback list, no value bookkeeping.  It is not
#: awaitable; processes that need to *wait* use real events.


class EventAlreadyTriggered(RuntimeError):
    """Raised when succeed/fail is called on an already-triggered event."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    Events move through three states: *pending* (just created),
    *triggered* (scheduled with a value, sitting in the event heap) and
    *processed* (callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks run when the event is processed.  ``None`` afterwards.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (has a value)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful when triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance when failed)."""
        if self._value is PENDING:
            raise AttributeError("value of untriggered event is not available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on the event.
        If nobody waits, the environment raises it at processing time
        (unless :meth:`defused` is set).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self

    # -- failure bookkeeping ----------------------------------------------
    def defuse(self) -> None:
        """Mark a failed event as handled so the env does not crash."""
        self._defused = True

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time.

    Construction is the hottest allocation in the simulator (every
    chained ``yield env.timeout(...)`` builds one), so it assigns all
    slots directly and pushes its own heap entry instead of going
    through ``Event.__init__`` + ``Environment.schedule``.  Timeouts are
    deliberately *not* pooled: user code may keep references to a
    processed timeout (:class:`AllOf` re-reads sub-event values,
    processes inspect ``.value``), so recycling one would corrupt observable state.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class AllOf(Event):
    """Triggers once *all* of the given events have been processed.

    Its value maps each event to its value, in the order the events were
    given.  If any event fails, the first failure to be processed fails
    this event with the same exception (and is marked handled).
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = tuple(events)
        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        self._pending = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._pending -= 1
        if not self._pending:
            self.succeed({e: e._value for e in self._events})
