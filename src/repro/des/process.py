"""Generator-based simulated processes.

A :class:`Process` drives a Python generator: every ``yield`` hands the
environment an :class:`~repro.des.events.Event` to wait for; when the
event is processed, its value is sent back into the generator (or the
exception thrown, for failed events).  Processes are themselves events and
succeed with the generator's return value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from .events import PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Process"]


class Process(Event):
    """A running simulated activity wrapping a generator."""

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        env._live[self] = generator

        # Kick off the generator via an immediately-scheduled init event.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init, priority=URGENT)

    @classmethod
    def adopt(
        cls, env: "Environment", generator: Generator, name: str, target: Event
    ) -> "Process":
        """A process for a generator that has already run elsewhere and
        last yielded ``target``: no init event, it waits on ``target``
        exactly where a process would have registered (see
        :class:`~repro.des.cohort.Cohort`)."""
        proc = cls.__new__(cls)
        Event.__init__(proc, env)
        proc._generator = generator
        proc.name = name
        env._live[proc] = generator
        if target.callbacks is not None:
            target.callbacks.append(proc._resume)
        else:
            proc._resume(target)
        return proc

    @property
    def is_alive(self) -> bool:
        """True until the generator has finished."""
        return self._value is PENDING

    # -- driver -------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    # Mark handled; the generator may re-raise.
                    event.defuse()
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                del env._live[self]
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                break
            except BaseException as exc:
                del env._live[self]
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_target, Event):
                self._ok = False
                self._value = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}"
                )
                env.schedule(self)
                break

            if next_target.callbacks is not None:
                # Not yet processed: register and go to sleep.
                next_target.callbacks.append(self._resume)
                break

            # Already processed: loop and feed its value in immediately.
            event = next_target

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"
