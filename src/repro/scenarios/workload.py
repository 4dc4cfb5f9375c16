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

from typing import TYPE_CHECKING

from ..oskern import RpcError
from .primitives import HotSet

if TYPE_CHECKING:
    from ..des import Environment
    from ..oskern import SimProcess

__all__ = ["HotSet", "start_dirtier", "dirtier_stats"]


def dirtier_stats() -> dict:
    """A fresh live-stats dict as :func:`start_dirtier` returns it."""
    return {"ticks": 0, "faulted": 0, "errors": 0}


def start_dirtier(
    env: "Environment",
    proc: "SimProcess",
    area,
    pattern: HotSet,
) -> dict:
    """Spawn a write-hot workload on ``proc``: every ``pattern.interval``
    seconds, write ``pattern.pages`` pages of ``area`` (from
    ``pattern.offset``) through the fault-aware
    :meth:`~repro.oskern.task.SimProcess.touch_range` path.

    Unlike a bare ``write_range`` loop this behaves like a real
    application under migration: it pauses while frozen, blocks on
    demand fetches after a post-copy thaw, and slows down while
    auto-convergence throttles the process (the tick interval stretches
    by the inverse of the CPU share).  Returns a live stats dict with
    ``ticks`` (completed write bursts), ``faulted`` (bursts that hit at
    least one non-resident page) and ``errors`` (aborted post-copy
    fetches, which also stop the workload).
    """
    stats = dirtier_stats()

    def loop():
        while True:
            yield env.timeout(pattern.interval / max(proc.cpu_throttle, 1e-6))
            had_absent = proc.address_space.has_absent
            try:
                yield from proc.touch_range(area, pattern.pages, pattern.offset)
            except RpcError:
                stats["errors"] += 1
                return
            stats["ticks"] += 1
            if had_absent:
                stats["faulted"] += 1

    env.process(loop(), name=f"dirtier-{proc.pid}")
    return stats
