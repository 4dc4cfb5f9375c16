"""Threads and processes (the migratable units).

A :class:`SimProcess` is what the paper migrates: an address space, an
FD table, and one or more :class:`Thread`\\ s with registers and signal
handlers.  Application behaviour is driven by DES generator processes;
the *freeze* protocol of live migration parks them on a thaw event so
no application code runs while the execution context is in flight.

The signal-based checkpoint notification (Section III-A) is modelled by
:meth:`SimProcess.deliver_checkpoint_signal`: threads executing a system
call abandon it and return to userspace first — which is what guarantees
that no socket is locked and no prequeue is in use during the freeze
(Section V-C.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from ..des import Environment, Event
from .fdtable import FDTable
from .memory import AddressSpace

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

__all__ = ["Thread", "SimProcess", "ProcessState"]


class ProcessState:
    RUNNING = "running"
    FROZEN = "frozen"
    EXITED = "exited"
    #: Exists on the destination but has not received execution context.
    EMBRYO = "embryo"


@dataclass
class Thread:
    """One kernel task: registers, signal handlers, syscall state."""

    tid: int
    #: Opaque register state; bumped by app code so tests can verify
    #: the *latest* context (not a stale one) arrived at the destination.
    registers_version: int = 0
    signal_handlers: dict[int, str] = field(default_factory=dict)
    #: True while the thread is blocked inside a syscall.
    in_syscall: bool = False
    #: Called when a checkpoint signal forces the thread out of a
    #: syscall (releases socket locks, drains the prequeue, ...).
    syscall_abort: Optional[Callable[[], None]] = None

    def touch_registers(self) -> None:
        self.registers_version += 1

    def checkpoint_record(self) -> dict[str, Any]:
        return {
            "tid": self.tid,
            "registers_version": self.registers_version,
            "signal_handlers": dict(self.signal_handlers),
        }


class SimProcess:
    """A simulated OS process — the migratable unit of the system."""

    def __init__(self, kernel: "Kernel", name: str, nthreads: int = 1) -> None:
        if nthreads < 1:
            raise ValueError("a process needs at least one thread")
        self.pid = next(kernel.env.pids)
        self.name = name
        self.kernel = kernel
        self.address_space = AddressSpace()
        self.fdtable = FDTable()
        self.threads = [Thread(next(kernel.env.tids)) for _ in range(nthreads)]
        self.state = ProcessState.RUNNING
        #: Event recreated on each freeze; app loops wait on it to thaw.
        self._thaw_event: Optional[Event] = None
        #: CPU demand (fraction of one core) for the fluid scheduler.
        self.cpu_demand = 0.0
        #: Auto-convergence throttle: fraction of normal speed the
        #: workload is allowed (1.0 = unthrottled).  Workloads honour it
        #: by stretching their write interval.
        self.cpu_throttle = 1.0
        #: Post-copy demand-fetch hook.  When set (process restored with
        #: absent pages), ``touch_range`` routes writes that hit a
        #: non-resident page through it; the handler is a generator
        #: function ``(start, end) -> Generator`` that completes once
        #: the pages are resident.
        self.page_fault_handler: Optional[Callable[[int, int], Generator]] = None

    # -- convenience ---------------------------------------------------------
    @property
    def env(self) -> Environment:
        return self.kernel.env

    @property
    def stranded_pages(self) -> int:
        """Pages mapped but not resident with no handler left to fetch
        them: what a post-copy that failed after the thaw leaves behind.
        Their contents exist nowhere, so such a process must not
        migrate (a dump would ship them as version-0 pages)."""
        if self.page_fault_handler is not None:
            return 0
        return self.address_space.absent_count

    @property
    def node_name(self) -> str:
        return self.kernel.node_name

    @property
    def main_thread(self) -> Thread:
        return self.threads[0]

    def clone_thread(self) -> Thread:
        """Add a thread (used by the migration helper thread)."""
        t = Thread(next(self.env.tids))
        self.threads.append(t)
        return t

    def reap_thread(self, thread: Thread) -> None:
        if thread is self.main_thread:
            raise ValueError("cannot reap the main thread")
        self.threads.remove(thread)

    # -- freeze protocol -------------------------------------------------------
    @property
    def is_frozen(self) -> bool:
        return self.state == ProcessState.FROZEN

    def freeze(self) -> None:
        """Stop application execution (start of the freeze phase)."""
        if self.state != ProcessState.RUNNING:
            raise RuntimeError(f"cannot freeze process in state {self.state}")
        self.state = ProcessState.FROZEN
        self._thaw_event = Event(self.env)

    def thaw(self) -> None:
        """Resume application execution (restart finished / abort)."""
        if self.state != ProcessState.FROZEN:
            raise RuntimeError(f"cannot thaw process in state {self.state}")
        self.state = ProcessState.RUNNING
        ev, self._thaw_event = self._thaw_event, None
        assert ev is not None
        ev.succeed()

    def exit(self) -> None:
        self.state = ProcessState.EXITED
        self.kernel.remove_process(self)

    def check_frozen(self) -> Iterable:
        """``yield from`` this at loop tops of application code: blocks
        while the process is frozen, no-ops otherwise.  A running
        process gets an empty tuple, so the common case builds no
        generator."""
        if self.state != ProcessState.FROZEN:
            return ()
        return self._wait_thaw()

    def _wait_thaw(self) -> Generator:
        while self.state == ProcessState.FROZEN:
            assert self._thaw_event is not None
            yield self._thaw_event
        return None

    def touch_range(self, area: Any, count: int, offset: int = 0) -> Generator:
        """``yield from`` write path for workloads that may run under an
        in-flight post-copy restore: blocks while frozen, demand-fetches
        any non-resident pages through :attr:`page_fault_handler`, then
        performs the write.  Equivalent to plain
        ``address_space.write_range`` when all pages are resident.
        """
        yield from self.check_frozen()
        space = self.address_space
        if space.has_absent and self.page_fault_handler is not None:
            start = area.start + offset
            end = start + count
            while True:
                missing = space.absent_in(start, end)
                if not missing:
                    break
                yield from self.page_fault_handler(missing[0][0], missing[0][1])
        space.write_range(area, count, offset)
        return None

    # -- signals ------------------------------------------------------------------
    def deliver_checkpoint_signal(self) -> int:
        """Deliver the live-checkpoint signal to all threads.

        Threads inside a syscall abandon it (running their registered
        abort action, e.g. releasing a socket lock) and return to
        userspace.  Returns the number of threads that were forced out
        of syscalls.
        """
        aborted = 0
        for thread in self.threads:
            if thread.in_syscall:
                if thread.syscall_abort is not None:
                    thread.syscall_abort()
                thread.in_syscall = False
                thread.syscall_abort = None
                aborted += 1
        return aborted

    # -- sockets -----------------------------------------------------------------
    def sockets(self) -> list[Any]:
        """All socket objects in this process's FD table, fd order."""
        return [sf.socket for _, sf in self.fdtable.sockets()]

    def __repr__(self) -> str:
        return f"<SimProcess pid={self.pid} {self.name!r} on {self.node_name} {self.state}>"
