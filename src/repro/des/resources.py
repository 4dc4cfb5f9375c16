"""Waitable resource primitives built on the event kernel.

Only the primitives the rest of the system actually needs:

- :class:`Store` — an unbounded (or bounded) FIFO of items with blocking
  ``get``; models message queues of daemons and socket receive paths.
- :class:`Resource` — counted resource with blocking ``request``; models
  things like "one in-flight inbound migration per node".
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Store", "Resource"]


class Store:
    """FIFO item store with blocking get and optional capacity."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Put ``item`` into the store; returns an event that fires when
        the item has been accepted (immediately unless full)."""
        done = Event(self.env)
        if len(self.items) < self.capacity:
            self.items.append(item)
            done.succeed()
            self._wake_getter()
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.items.popleft())
            self._wake_putter()
        else:
            self._getters.append(ev)
        return ev

    def _wake_getter(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self.items.popleft())

    def _wake_putter(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            done, item = self._putters.popleft()
            self.items.append(item)
            done.succeed()
            self._wake_getter()


class Resource:
    """Counted resource: at most ``capacity`` holders at a time."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.users

    def request(self) -> Event:
        """Return an event that fires once a slot is acquired."""
        ev = Event(self.env)
        if self.users < self.capacity:
            self.users += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_request(self) -> bool:
        """Non-blocking acquire."""
        if self.users < self.capacity:
            self.users += 1
            return True
        return False

    def release(self) -> None:
        """Release one slot, waking the oldest waiter if any."""
        if self.users <= 0:
            raise RuntimeError("release of an un-acquired resource")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self.users -= 1
