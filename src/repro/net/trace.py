"""tcpdump-like packet tracing on links.

Figure 4 of the paper is produced by capturing server packets with
tcpdump on both nodes and plotting packet number against time around the
migration; :class:`PacketTrace` records exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .link import Link
from .packet import Packet

__all__ = ["TraceRecord", "PacketTrace"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    time: float
    packet: Packet
    from_side: int
    link_name: str


class PacketTrace:
    """Collects :class:`TraceRecord`s from any number of links."""

    def __init__(self, filter_fn: Optional[Callable[[Packet], bool]] = None) -> None:
        self.records: list[TraceRecord] = []
        self._filter = filter_fn

    def attach(self, link: Link) -> None:
        def tap(time: float, packet: Packet, from_side: int) -> None:
            if self._filter is None or self._filter(packet):
                self.records.append(TraceRecord(time, packet, from_side, link.name))

        link.add_tap(tap)

    def __len__(self) -> int:
        return len(self.records)

    def times(self) -> np.ndarray:
        return np.asarray([r.time for r in self.records])
