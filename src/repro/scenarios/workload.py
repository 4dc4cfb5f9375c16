"""Reusable memory workloads for processes under migration.

The mode benches, fault tests and the scenario driver all need the same
thing: a process that keeps re-dirtying a working set while behaving
like a real application under migration — pausing while frozen,
blocking on post-copy demand fetches, stretching its tick while
auto-convergence throttles it.  This module is that loop, shared so
benches and tests do not duplicate dirtier loops.

The touch pattern itself is the pure :class:`~repro.scenarios.
primitives.HotSet` primitive, so scenario specs can carry it in the DSL
(``dirty hotset pages=40 interval=0.05``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..des import Cohort
from ..oskern import RpcError
from .primitives import HotSet

if TYPE_CHECKING:
    from ..des import Environment
    from ..oskern import SimProcess

__all__ = ["HotSet", "RotatingWindow", "start_dirtier", "start_rotating_dirtier", "dirtier_stats"]


def dirtier_stats() -> dict:
    """A fresh live-stats dict as :func:`start_dirtier` returns it."""
    return {"ticks": 0, "faulted": 0, "errors": 0}


def start_dirtier(
    env: "Environment",
    proc: "SimProcess",
    area,
    pattern: HotSet,
    cohort: Optional[Cohort] = None,
) -> dict:
    """Spawn a write-hot workload on ``proc``: every ``pattern.interval``
    seconds, write ``pattern.pages`` pages of ``area`` (from
    ``pattern.offset``) through the fault-aware
    :meth:`~repro.oskern.task.SimProcess.touch_range` path.

    Unlike a bare ``write_range`` loop this behaves like a real
    application under migration: it pauses while frozen, blocks on
    demand fetches after a post-copy thaw, and slows down while
    auto-convergence throttles the process (the tick interval stretches
    by the inverse of the CPU share).  Dirtiers started at one instant
    share ``cohort`` (of period ``pattern.interval``; one is made when
    none is given); a dirtier leaves it at its first throttled tick,
    demand fetch or freeze.  Returns a live stats dict with
    ``ticks`` (completed write bursts), ``faulted`` (bursts that hit at
    least one non-resident page) and ``errors`` (aborted post-copy
    fetches, which also stop the workload).
    """
    if cohort is None:
        cohort = Cohort(env, pattern.interval)
    elif cohort.period != pattern.interval:
        raise ValueError(
            f"cohort period {cohort.period} differs from the interval {pattern.interval}"
        )
    stats = dirtier_stats()

    def loop():
        while True:
            throttle = proc.cpu_throttle
            if throttle == 1.0:
                yield cohort.tick()
            else:
                yield env.timeout(pattern.interval / max(throttle, 1e-6))
            had_absent = proc.address_space.has_absent
            try:
                yield from proc.touch_range(area, pattern.pages, pattern.offset)
            except RpcError:
                stats["errors"] += 1
                return
            stats["ticks"] += 1
            if had_absent:
                stats["faulted"] += 1

    cohort.join(loop(), name=f"dirtier-{proc.pid}")
    return stats


@dataclass(frozen=True)
class RotatingWindow:
    """``count`` pages written every ``interval`` seconds, at an offset
    that moves on by ``count`` each tick and wraps at the area's end."""

    count: int
    interval: float


def start_rotating_dirtier(env: "Environment", proc: "SimProcess", area, window: RotatingWindow) -> dict:
    """:func:`start_dirtier` for a :class:`RotatingWindow`, as a process
    of its own rather than a cohort member; live ``ticks``/``errors``."""
    count, interval = window.count, window.interval
    stats = {"ticks": 0, "errors": 0}

    def loop():
        offset = 0
        while True:
            yield env.timeout(interval / max(proc.cpu_throttle, 1e-6))
            try:
                yield from proc.touch_range(area, count, offset)
            except RpcError:
                stats["errors"] += 1
                return
            stats["ticks"] += 1
            offset += count
            if offset + count > area.npages:
                offset = 0

    env.process(loop())
    return stats
