"""The virtual space: a 10x10 zone grid partitioned across server nodes.

Figure 5a: one hundred zones in a ten-by-ten grid; each of the five DVE
server nodes is initially assigned 20 zones (two grid rows), so 20 zone
server processes run on every node.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Zone", "ZoneGrid"]


@dataclass(frozen=True)
class Zone:
    """One cell of the virtual-space grid."""

    zone_id: int
    col: int
    row: int


class ZoneGrid:
    """The grid and its initial zone -> node assignment."""

    def __init__(self, cols: int = 10, rows: int = 10, n_nodes: int = 5) -> None:
        if cols < 1 or rows < 1:
            raise ValueError("grid must be non-empty")
        if rows % n_nodes != 0:
            raise ValueError(
                f"{rows} rows cannot be split evenly across {n_nodes} nodes"
            )
        self.cols = cols
        self.rows = rows
        self.n_nodes = n_nodes
        self.zones = [
            Zone(zone_id=row * cols + col, col=col, row=row)
            for row in range(rows)
            for col in range(cols)
        ]

    def __len__(self) -> int:
        return len(self.zones)

    def zone_at(self, col: int, row: int) -> Zone:
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise ValueError(f"({col}, {row}) outside the grid")
        return self.zones[row * self.cols + col]

    def initial_node_of(self, zone: Zone) -> int:
        """Index of the node initially responsible for ``zone``
        (contiguous row bands, Figure 5a)."""
        rows_per_node = self.rows // self.n_nodes
        return zone.row // rows_per_node
