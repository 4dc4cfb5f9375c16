"""Lockstep cohorts: periodic loops that tick at the same instants.

Many simulated loops start at one instant and then wait the same period
forever (zone servers' real-time loops, a scenario's hot-set dirtiers,
the nodes' load monitors).  A :class:`Cohort` drives them off one heap
entry per tick instead of one timeout each.

A member is a generator that yields :meth:`Cohort.tick` where a process
would yield ``env.timeout(period)``.  Each tick the cohort resumes its
members in join order.  A member that yields anything else (a thaw
event, a demand-fetch RPC, a timeout of another length) leaves for good
and goes on as an ordinary :class:`Process` waiting on that event.

The event order is the per-process one: the tick's entry takes the key
the first remaining member's timeout would have had, and the members'
timeouts would have had consecutive keys, because a member's tick
schedules nothing but its next wait.  What was scheduled between two
joins must commute with the members; ``docs/performance.md`` ("Lockstep
cohorts") works through the three call sites.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import URGENT, Event
from .process import Process

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Cohort"]

#: What :meth:`Cohort.tick` hands a member the cohort is driving.
_TICK = object()


class Cohort:
    """Loops that wait ``period`` seconds in lockstep, off one heap entry.

    Members join with :meth:`join` at the instant the cohort is made,
    before its first step; a loop started later needs a cohort of its
    own.  An exception a member raises crashes the run as an unhandled
    process failure does, and closing the environment closes every
    member's generator.
    """

    __slots__ = ("env", "period", "_members", "_born", "_start", "_driving")

    def __init__(self, env: "Environment", period: float) -> None:
        if period <= 0:
            raise ValueError(f"cohort period must be positive, got {period}")
        self.env = env
        self.period = period
        #: (generator, name) of every member still in the cohort.
        self._members: list[tuple[Generator, str]] = []
        self._born = env.now
        #: The URGENT entry that runs every member's first step.
        self._start: Optional[Event] = None
        #: True while the cohort is resuming a member (see :meth:`tick`).
        self._driving = False

    @property
    def joinable(self) -> bool:
        """True while a loop may still join: at the creation instant,
        before the members' first step has run."""
        start = self._start
        return self.env.now == self._born and (start is None or start.callbacks is not None)

    def join(self, generator: Generator, name: Optional[str] = None) -> None:
        """Add a member loop; it takes its first step when a process
        spawned now would have."""
        if not self.joinable:
            raise RuntimeError("a cohort takes members only before its first step")
        env = self.env
        if self._start is None:
            start = self._start = Event(env)
            start._value = None
            start.callbacks.append(self._step)
            env.schedule(start, priority=URGENT)
        self._members.append((generator, name or getattr(generator, "__name__", "process")))
        env._live[generator] = generator

    def tick(self) -> Any:
        """What a member yields to wait one period: the shared tick while
        the cohort drives it, its own timeout once it has left."""
        if self._driving:
            return _TICK
        return self.env.timeout(self.period)

    def _step(self, _event: Any) -> None:
        env = self.env
        members = self._members
        gone = []
        due = False
        self._driving = True
        for member in members:
            gen = member[0]
            try:
                target = gen.send(None)
            except BaseException as exc:
                del env._live[gen]
                gone.append(member)
                if not isinstance(exc, StopIteration):
                    # Fails like a process nobody waits on: the run raises
                    # it when the failure's entry comes off the heap.
                    Event(env).fail(exc)
                continue
            if target is _TICK:
                if not due:
                    due = True
                    env.call_later(self.period, self._step)
            else:
                del env._live[gen]
                gone.append(member)
                self._driving = False
                Process.adopt(env, gen, member[1], target)
                self._driving = True
        self._driving = False
        if gone:
            self._members = [m for m in members if m not in gone]
