"""atop-like load monitoring (Section IV).

The conductor retrieves load information via the *atop* utility in the
paper; here a :class:`LoadMonitor` samples the kernel's CPU accounting
on a fixed interval, keeps a short smoothing window (utilisation
indicators need a calm-down period to stabilise after migrations), and
reports per-process CPU shares for the selection policy.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..des import Cohort, TimeSeries
from ..oskern import SimProcess
from ..oskern.node import Host

__all__ = ["LoadMonitor"]


class LoadMonitor:
    """Periodic sampler of node CPU utilisation."""

    def __init__(
        self,
        host: Host,
        interval: float = 1.0,
        window: int = 3,
        record_history: bool = True,
        cohort: Optional[Cohort] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.host = host
        self.env = host.env
        self.interval = interval
        self._window: deque[float] = deque(maxlen=window)
        self.history: Optional[TimeSeries] = (
            TimeSeries(f"{host.name}-cpu") if record_history else None
        )
        # Monitors installed at one instant sample in lockstep: they
        # share ``cohort`` (of period ``interval``; one is made when none
        # is given).
        if cohort is None:
            cohort = Cohort(self.env, interval)
        elif cohort.period != interval:
            raise ValueError(f"cohort period {cohort.period} differs from the interval {interval}")
        cohort.join(self._sample_loop(cohort), name=f"monitor-{host.name}")
        metrics = self.env.metrics
        if metrics is not None:
            metrics.gauge(f"cpu.{host.name}", fn=self.instantaneous_load)

    def _sample_loop(self, cohort: Cohort):
        while True:
            load = self.host.kernel.cpu.utilization()
            self._window.append(load)
            if self.history is not None:
                self.history.record(self.env.now, load)
            yield cohort.tick()

    # -- queries ---------------------------------------------------------------
    def current_load(self) -> float:
        """Smoothed CPU utilisation in percent (mean of the window)."""
        if not self._window:
            return self.host.kernel.cpu.utilization()
        return sum(self._window) / len(self._window)

    def instantaneous_load(self) -> float:
        return self.host.kernel.cpu.utilization()

    def process_shares(self, procs: list[SimProcess]) -> list[tuple[SimProcess, float]]:
        """Per-process granted CPU shares (% of node capacity)."""
        cpu = self.host.kernel.cpu
        return [(p, cpu.cpu_share_of(p)) for p in procs]
