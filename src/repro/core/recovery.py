"""Migration retry: try the next candidate, with backoff and a budget.

A failed migration already leaves the cluster consistent — the engine's
rollback puts the process and its sockets back on the source — so
recovery is a *policy* question: which destination next, after how
long, and when to stop.  :class:`RetryPolicy` answers it; and
:func:`migrate_with_retry` is the driver both for standalone use and
for the conductor's balance loop.

Every decision emits a ``recover.*`` trace event (``recover.retry``,
``recover.backoff``, ``recover.giveup``) so a timeline shows exactly
why a process ended up where it did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..oskern import SimProcess
from ..oskern.node import Host
from .precopy import LiveMigrationConfig, LiveMigrationEngine
from .stats import MigrationReport

__all__ = ["RetryPolicy", "migrate_with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a hard attempt budget.

    Attempt ``n`` (0-based) that fails is followed by a wait of
    ``backoff_base * backoff_factor**n``, capped at ``backoff_max``,
    before attempt ``n + 1``.  At most ``max_attempts`` migrations are
    started in total.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("retry budget must allow at least one attempt")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ValueError("invalid backoff parameters")

    def backoff(self, attempt: int) -> float:
        """Delay after failed attempt number ``attempt`` (0-based)."""
        return min(self.backoff_max, self.backoff_base * self.backoff_factor**attempt)


#: The retry budget of :func:`migrate_with_retry` and the conductor.
DEFAULT_RETRY = RetryPolicy()


def migrate_with_retry(
    source: Host,
    candidates: list[Host],
    proc: SimProcess,
    config: Optional[LiveMigrationConfig] = None,
    policy: Optional[RetryPolicy] = None,
    skip: Optional[Callable[[Host], bool]] = None,
):
    """DES generator: migrate ``proc``, walking the candidate list.

    Tries each destination in order; a failed attempt (the engine rolled
    back, the process is safe on the source) is followed by the policy's
    backoff before the next candidate.  ``skip`` — typically a failure
    detector's verdict — vetoes candidates just before each attempt, so
    a destination declared dead *during* an earlier attempt's backoff is
    never tried.

    The generator's value is the last attempt's
    :class:`~repro.core.stats.MigrationReport` (``report.success`` says
    whether any attempt landed), or ``None`` when every candidate was
    vetoed before a single attempt started.
    """
    policy = policy or DEFAULT_RETRY
    env = source.env
    tr = env.tracer
    report: Optional[MigrationReport] = None
    attempt = 0
    for dest in candidates:
        if attempt >= policy.max_attempts:
            break
        if skip is not None and skip(dest):
            if tr.enabled:
                tr.event(
                    "recover.skip",
                    pid=proc.pid,
                    node=source.name,
                    dest=dest.name,
                )
            continue
        if attempt > 0:
            delay = policy.backoff(attempt - 1)
            if tr.enabled:
                tr.event(
                    "recover.backoff",
                    pid=proc.pid,
                    node=source.name,
                    attempt=attempt,
                    delay=delay,
                )
            yield env.timeout(delay)
            if skip is not None and skip(dest):
                if tr.enabled:
                    tr.event(
                        "recover.skip",
                        pid=proc.pid,
                        node=source.name,
                        dest=dest.name,
                    )
                continue
        engine = LiveMigrationEngine(source, dest, proc, config)
        if tr.enabled and attempt > 0:
            tr.event(
                "recover.retry",
                pid=proc.pid,
                node=source.name,
                session=engine.session.label,
                attempt=attempt,
                dest=dest.name,
            )
        report = yield engine.start()
        if report.success:
            return report
        attempt += 1
        if proc.kernel is not source.kernel:
            # No rollback (a failed post-copy leaves execution on the
            # destination): there is nothing left to retry from here.
            break
    if tr.enabled and report is not None:
        tr.event(
            "recover.giveup",
            pid=proc.pid,
            node=source.name,
            attempts=attempt,
            error=report.error,
        )
    return report
