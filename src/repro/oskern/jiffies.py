"""Per-node jiffies clocks.

Linux TCP timestamps are kernel jiffies — a counter incremented roughly
every 10 ms — and *different nodes have different jiffies* (Section
V-C.1).  Socket migration must therefore record the source jiffies at
checkpoint time, compute the delta on the destination, and shift every
timestamp in the restored socket.  A random per-node boot offset forces
that code path to do real work.
"""

from __future__ import annotations

from ..des import Environment

__all__ = ["JiffiesClock", "JIFFIES_HZ"]

#: Classic Linux 2.6 HZ=100: one jiffy per 10 ms.
JIFFIES_HZ = 100


class JiffiesClock:
    """A node-local jiffies counter derived from simulated time."""

    def __init__(self, env: Environment, boot_offset: int = 0, hz: int = JIFFIES_HZ) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        if boot_offset < 0:
            raise ValueError("boot offset must be non-negative")
        self.env = env
        self.hz = hz
        self.boot_offset = int(boot_offset)

    @property
    def jiffies(self) -> int:
        """Current jiffies value on this node."""
        return self.boot_offset + int(self.env._now * self.hz)

    def delta_to(self, other: "JiffiesClock") -> int:
        """Jiffies offset to add when moving timestamps to ``other``.

        ``other.jiffies == self.jiffies + self.delta_to(other)`` at any
        instant (both clocks tick at the same rate; only boot offsets
        differ).
        """
        if self.hz != other.hz:
            raise ValueError("cannot relate clocks with different HZ")
        return other.boot_offset - self.boot_offset
