"""Fluid CPU accounting.

The load-balancing experiments (Fig. 5d/e/f) need per-node CPU
utilisation and per-process CPU consumption — what the paper's conductor
reads via *atop*.  Zone-server CPU demand is proportional to the number
of clients in the zone (Section VI-C), so a fluid model suffices: each
process declares a demand (fraction of one core, piecewise-constant in
time) and the scheduler integrates granted CPU time, scaling everything
down proportionally when the node saturates.

The total demand is kept as ``sum`` over the demands, recomputed only
when a demand changes, so load queries (``utilization``,
``total_demand``, ``cpu_share_of``) cost no sum and no integration:
granted CPU time is integrated at demand changes and when
``cpu_time_of`` reads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..des import Environment

if TYPE_CHECKING:  # pragma: no cover
    from .task import SimProcess

__all__ = ["CpuAccounting"]


class CpuAccounting:
    """Per-node fluid CPU scheduler and accountant."""

    def __init__(self, env: Environment, cores: int = 2) -> None:
        if cores < 1:
            raise ValueError("need at least one core")
        self.env = env
        self.cores = cores
        #: pid -> declared demand (fraction of one core, >= 0).
        self._demand: Dict[int, float] = {}
        #: pid -> accumulated CPU seconds actually granted.
        self._cpu_time: Dict[int, float] = {}
        self._last_update = env.now
        self._retotal()

    # -- internal ------------------------------------------------------------
    def _retotal(self) -> None:
        """Recompute the cached total demand; called on every change."""
        self._total = sum(self._demand.values())

    def _integrate(self) -> None:
        """Accrue CPU time for the interval since the last state change."""
        now = self.env.now
        dt = now - self._last_update
        if dt > 0:
            total = self._total
            scale = 1.0 if total <= self.cores else self.cores / total
            for pid, d in self._demand.items():
                if d > 0:
                    self._cpu_time[pid] = self._cpu_time.get(pid, 0.0) + d * scale * dt
        self._last_update = now

    # -- demand management ------------------------------------------------------
    def set_demand(self, proc: "SimProcess", demand: float) -> None:
        """Declare ``proc``'s CPU demand from now on."""
        if demand < 0:
            raise ValueError("demand must be non-negative")
        # A throttled process's entry differs from its declared demand,
        # so re-declaring that demand still un-throttles it.
        if self._demand.get(proc.pid) == demand and proc.cpu_demand == demand:
            return
        self._integrate()
        self._demand[proc.pid] = demand
        self._retotal()
        self._cpu_time.setdefault(proc.pid, 0.0)
        proc.cpu_demand = demand

    def remove(self, proc: "SimProcess") -> None:
        """Drop a process (exit or migration away)."""
        self._integrate()
        self._demand.pop(proc.pid, None)
        self._retotal()

    def adopt(self, proc: "SimProcess") -> None:
        """Take over accounting for an in-migrated process, keeping the
        demand it declared on the source node."""
        self._integrate()
        self._demand[proc.pid] = proc.cpu_demand
        self._retotal()
        self._cpu_time.setdefault(proc.pid, 0.0)

    def set_throttle(self, proc: "SimProcess", share: float) -> None:
        """Auto-convergence throttle: cap ``proc`` at ``share`` of its
        declared demand (1.0 = unthrottled).  The declared
        ``proc.cpu_demand`` is preserved so un-throttling and adoption
        on the destination restore the full demand.
        """
        if not 0.0 <= share <= 1.0:
            raise ValueError("throttle share must be in [0, 1]")
        self._integrate()
        if proc.pid in self._demand:
            self._demand[proc.pid] = proc.cpu_demand * share
            self._retotal()
        proc.cpu_throttle = share

    # -- queries --------------------------------------------------------------
    def runq_depth(self) -> int:
        """Runnable processes: those with a positive declared demand
        (the atop/telemetry notion of run-queue depth in a fluid model)."""
        return sum(1 for d in self._demand.values() if d > 0)

    def total_demand(self) -> float:
        return self._total

    def utilization(self) -> float:
        """Node CPU utilisation in percent of total capacity, capped at 100."""
        return min(100.0, 100.0 * self._total / self.cores)

    def demand_of(self, proc: "SimProcess") -> float:
        return self._demand.get(proc.pid, 0.0)

    def cpu_time_of(self, proc: "SimProcess") -> float:
        """Accumulated CPU seconds granted to ``proc`` on this node."""
        self._integrate()
        return self._cpu_time.get(proc.pid, 0.0)

    def cpu_share_of(self, proc: "SimProcess") -> float:
        """``proc``'s *granted* share in percent of node capacity.

        This is the quantity the selection policy compares against the
        node-vs-cluster-average difference.
        """
        d = self._demand.get(proc.pid, 0.0)
        total = self._total
        scale = 1.0 if total <= self.cores else self.cores / total
        return 100.0 * d * scale / self.cores
