"""Receiver-side migration admission: two-phase commit + calm-down.

The receiver enters the migrating state through a two-phase commit with
the sender (Section IV-A).  The paper admits only one migration at a
time; :class:`MigrationAdmission` generalizes that to a capacity-N
admission — up to N concurrent migration sessions, each followed by its
own *calm-down* period so resource indicators can stabilise before the
capacity is handed out again.  ``capacity=1`` is the paper's semantics
exactly.
"""

from __future__ import annotations

from ..des import Environment

__all__ = ["MigrationAdmission"]


class MigrationAdmission:
    """Capacity-N admission of concurrent migration sessions.

    Each reservation occupies one unit of capacity while the session
    runs; a committed release converts the unit into a calm-down that
    keeps occupying it until the cool-off expires.  With ``capacity=1``
    this degenerates to the paper's single busy-or-calming slot.
    """

    def __init__(
        self, env: Environment, capacity: int = 1, calm_down: float = 10.0
    ) -> None:
        if capacity < 1:
            raise ValueError("admission capacity must be >= 1")
        if calm_down < 0:
            raise ValueError("calm-down must be non-negative")
        self.env = env
        self.capacity = capacity
        self.calm_down = calm_down
        #: One entry per reservation held (a sender may hold several).
        self._holders: list[str] = []
        #: Expiry times of per-session calm-downs still occupying capacity.
        self._cooldowns: list[float] = []

    def _prune(self) -> None:
        now = self.env.now
        self._cooldowns = [t for t in self._cooldowns if t > now]

    # -- state ------------------------------------------------------------
    @property
    def holders(self) -> list[str]:
        return list(self._holders)

    @property
    def in_flight(self) -> int:
        return len(self._holders)

    @property
    def available(self) -> int:
        """Capacity units not held by a session or cooling down."""
        self._prune()
        return max(0, self.capacity - len(self._holders) - len(self._cooldowns))

    @property
    def busy(self) -> bool:
        return len(self._holders) >= self.capacity

    @property
    def calming(self) -> bool:
        self._prune()
        return bool(self._cooldowns)

    # -- 2PC verbs -----------------------------------------------------------
    def try_reserve(self, who: str) -> bool:
        """Phase 1: reserve one capacity unit.  Fails when every unit is
        held or cooling down."""
        if self.available <= 0:
            return False
        self._holders.append(who)
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "cond.slot.reserve",
                who=who,
                in_flight=len(self._holders),
                capacity=self.capacity,
            )
        return True

    def release(self, who: str, start_calm_down: bool = True) -> None:
        """Phase 2 (commit or abort): free one of ``who``'s units.

        ``start_calm_down`` is set on successful migrations so the load
        indicators can settle; aborts release immediately.
        """
        if who not in self._holders:
            raise RuntimeError(
                f"no reservation held by {who!r} (holders: {self._holders!r})"
            )
        self._holders.remove(who)
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "cond.slot.release",
                who=who,
                calm_down=start_calm_down,
                in_flight=len(self._holders),
            )
        if start_calm_down:
            self._cooldowns.append(self.env.now + self.calm_down)

    def start_calm_down(self) -> None:
        """Enter a calm-down without holding a unit (sender side)."""
        self._cooldowns.append(self.env.now + self.calm_down)
