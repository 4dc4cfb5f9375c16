"""Address-space change tracking (Section V-A).

Dirty pages are tracked by the page-table dirty bit directly (see
:meth:`repro.oskern.memory.AddressSpace.dirty_pages`).  What this module
adds is the *memory-area* tracking: the migration module keeps its own
linked list of area records and compares it against the live
``vm_area_struct`` list in every incremental loop, detecting insertions
(allocations), modifications (resizes) and removals (frees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..oskern.memory import AddressSpace, VMArea

__all__ = ["VMADiff", "VMATracker"]


@dataclass
class VMADiff:
    """Changes between two scans of the VMA list."""

    inserted: list[tuple[int, int, str, str]] = field(default_factory=list)
    modified: list[tuple[int, int, str, str]] = field(default_factory=list)
    removed: list[int] = field(default_factory=list)  # vma_ids

    @property
    def empty(self) -> bool:
        return not (self.inserted or self.modified or self.removed)

    def record_bytes(self, per_record: int = 32) -> int:
        return per_record * (len(self.inserted) + len(self.modified) + len(self.removed))


class VMATracker:
    """Our own tracking list, updated against the live VMA list."""

    def __init__(self) -> None:
        #: vma_id -> (start, end, perms) as of the last scan.
        self._tracked: dict[int, tuple[int, int, str]] = {}
        #: ``AddressSpace.map_version`` at the last scan, or ``None``
        #: before the first one.  When the counter is unchanged the map
        #: cannot have changed, so the diff is empty without walking
        #: either list.  The *simulated* cost (:meth:`compare_cost`) is
        #: unchanged — the kernel still walks both lists; only the
        #: wall-clock cost of computing an empty diff disappears.
        self._last_map_version: Optional[int] = None
        #: ``space_id`` of the space last scanned: an id, so the tracker
        #: does not keep a migrated-away space's page stores alive.
        self._last_space_id = 0

    def scan(self, space: AddressSpace) -> VMADiff:
        """Diff the live list against the tracking list and update it."""
        if space.space_id == self._last_space_id and space.map_version == self._last_map_version:
            return VMADiff()
        self._last_space_id = space.space_id
        self._last_map_version = space.map_version
        diff = VMADiff()
        tracked = self._tracked
        live: dict[int, VMArea] = {v.vma_id: v for v in space.vmas}

        for vma_id, area in live.items():
            shape = (area.start, area.end, area.perms)
            old = tracked.get(vma_id)
            if old is None:
                diff.inserted.append((area.start, area.end, area.perms, area.tag))
            elif old != shape:
                diff.modified.append((area.start, area.end, area.perms, area.tag))
            tracked[vma_id] = shape

        # After the merge loop the tracking list is a superset of the
        # live list, so equal sizes mean nothing was removed.
        if len(tracked) != len(live):
            for vma_id in list(tracked):
                if vma_id not in live:
                    diff.removed.append(vma_id)
                    del tracked[vma_id]

        return diff

    def compare_cost(self, space: AddressSpace, per_vma: float) -> float:
        """CPU cost of one scan (both lists walked)."""
        return per_vma * (len(space.vmas) + len(self._tracked))

    @property
    def tracked_count(self) -> int:
        return len(self._tracked)

    def current_map(self, space: AddressSpace) -> list[tuple[int, int, str, str]]:
        """Snapshot of the live map (what the destination should mirror)."""
        return [(v.start, v.end, v.perms, v.tag) for v in space.vmas]
