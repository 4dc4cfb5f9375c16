"""Process address spaces: VMA lists and extent-based dirty tracking.

The live-migration mechanism needs two things from memory management
(Section V-A):

1. *dirty-page tracking* between precopy rounds — we model the page-table
   dirty bit directly: every simulated write sets it, and the checkpoint
   code clears it after dumping;
2. *address-space change tracking* — insertions, modifications and
   removals of mapped areas, which Linux keeps as a ``vm_area_struct``
   list.  The migration module maintains its own tracking list and diffs
   it against the live list each round (see :mod:`repro.core.tracking`).

Pages carry a monotonically increasing *version* instead of data, so
tests can assert exactly which page contents reached the destination.

Representation.  Workloads write *ranges* (``write_range``), so the
write path is batched instead of per-page:

* dirty bits live in an :class:`ExtentSet` — sorted, disjoint half-open
  ``[start, end)`` runs kept as a flat boundary list, so marking a range
  dirty is an O(log n) interval merge rather than a per-page loop;
* versions live in one flat ``array('Q')`` per VMA, indexed by page
  offset.  Writes only record ``+1 at start, -1 at end`` boundary deltas — a
  difference array — and the arrays are *materialized lazily* at
  read/dump time by one sweep over the accumulated boundaries, applied
  as numpy slice additions.  Re-dirtying the same hot ranges many
  times between precopy rounds therefore costs O(1) per write and one
  slice bump per run per round, instead of one dict update per page per
  write.

Page contents leave and enter a space as a :class:`PageBatch`: an int64
vpn array and an int64 version array, in the order the producer emitted
them.  Dumps (:meth:`AddressSpace.dirty_version_map`,
:meth:`AddressSpace.content_snapshot`) copy run slices out of the page
stores into one batch; restores (:meth:`AddressSpace.load_snapshot`,
:meth:`AddressSpace.install_pages`) write runs back by slice or scatter.
No per-page Python work happens on either side.

The VMA list is kept sorted by ``start`` with a parallel key list, so
``find_vma``/``_insert``/``resize`` are O(log n) bisects with
neighbour-only overlap checks instead of linear scans.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right, insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .costs import PAGE_SIZE

__all__ = ["VMArea", "AddressSpace", "ExtentSet", "PageBatch", "PAGE_SIZE"]

# Process-wide, as neither value reaches an output: a VMA's id is compared
# only for identity, and a space's only to tell spaces apart.
_vma_ids = itertools.count(1)
_space_ids = itertools.count(1)


@dataclass
class VMArea:
    """A contiguous mapped region, analogous to ``vm_area_struct``.

    ``start``/``end`` are page numbers (end exclusive).  Identity is by
    ``vma_id`` so that a *moved or resized* area is recognized as a
    modification, not a remove+insert.
    """

    start: int
    end: int
    perms: str = "rw"
    tag: str = ""
    vma_id: int = field(default_factory=lambda: next(_vma_ids))

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty VMA [{self.start}, {self.end})")
        # ``space_id`` of the owning AddressSpace while mapped (0 once
        # unmapped): lets the write path validate a caller-held VMArea
        # reference in O(1) instead of re-finding it by bisect.  An id,
        # not the space itself, so no VMArea <-> AddressSpace cycle keeps
        # a dropped space's page stores alive until the cyclic collector
        # runs.  Not a dataclass field, so snapshots/eq/repr are
        # unaffected.
        self._owner = 0

    @property
    def npages(self) -> int:
        return self.end - self.start

    @property
    def nbytes(self) -> int:
        return self.npages * PAGE_SIZE

    def pages(self) -> range:
        return range(self.start, self.end)

    def snapshot(self) -> tuple[int, int, int, str]:
        """Hashable view (vma_id, start, end, perms) for tracking diffs."""
        return (self.vma_id, self.start, self.end, self.perms)

    def __str__(self) -> str:
        return f"vma#{self.vma_id}[{self.start},{self.end}) {self.perms} {self.tag}"


class ExtentSet:
    """A set of page numbers stored as sorted disjoint half-open runs.

    The runs live in one flat boundary list ``[s0, e0, s1, e1, ...]``
    with ``s0 < e0 < s1 < e1 < ...`` (touching runs are merged), so
    membership is a single :func:`bisect_right` — an odd insertion point
    means *inside a run* — and adding or removing a range merges or
    splits at most two boundary runs.
    """

    __slots__ = ("_b", "_count")

    def __init__(self) -> None:
        self._b: list[int] = []
        self._count = 0

    def __contains__(self, vpn: int) -> bool:
        return bisect_right(self._b, vpn) & 1 == 1

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def add(self, start: int, end: int) -> int:
        """Add ``[start, end)``; returns the number of newly-added pages."""
        if end <= start:
            return 0
        b = self._b
        # Fast path for the precopy-hot shape — re-dirtying a range that
        # is already entirely inside one run: a single bisect, no writes.
        i = bisect_right(b, start)
        if i & 1 and end <= b[i]:
            return 0
        lo = i - 1 if i and b[i - 1] == start else i
        hi = bisect_right(b, end)
        left = b[lo - 1] if lo & 1 else start
        right = b[hi] if hi & 1 else end
        lo -= lo & 1
        hi += hi & 1
        swallowed = b[lo:hi]
        prev = 0
        for j in range(0, len(swallowed), 2):
            prev += swallowed[j + 1] - swallowed[j]
        b[lo:hi] = (left, right)
        added = (right - left) - prev
        self._count += added
        return added

    def remove(self, start: int, end: int) -> int:
        """Remove ``[start, end)``; returns the number of pages removed."""
        if end <= start or not self._b:
            return 0
        removed = self.covered(start, end)
        if removed == 0:
            return 0
        b = self._b
        lo = bisect_right(b, start)
        hi = bisect_left(b, end)
        new_bounds = []
        if lo & 1:
            if start > b[lo - 1]:
                new_bounds.append(start)
            else:
                lo -= 1  # run starts exactly at ``start``: drop it whole
        if hi & 1:
            if end < b[hi]:
                new_bounds.append(end)
            else:
                hi += 1  # run ends exactly at ``end``: drop it whole
        b[lo:hi] = new_bounds
        self._count -= removed
        return removed

    def covered(self, start: int, end: int) -> int:
        """Number of member pages inside ``[start, end)``."""
        b = self._b
        i = bisect_right(b, start)
        i -= i & 1
        total = 0
        n = len(b)
        while i < n and b[i] < end:
            lo = b[i] if b[i] > start else start
            hi = b[i + 1] if b[i + 1] < end else end
            if hi > lo:
                total += hi - lo
            i += 2
        return total

    def clear(self) -> None:
        self._b.clear()
        self._count = 0

    def extents(self) -> list[tuple[int, int]]:
        """Sorted disjoint ``(start, end)`` runs."""
        b = self._b
        return [(b[i], b[i + 1]) for i in range(0, len(b), 2)]

    def pages(self) -> list[int]:
        """Sorted member pages, materialized."""
        out: list[int] = []
        b = self._b
        for i in range(0, len(b), 2):
            out.extend(range(b[i], b[i + 1]))
        return out

    def intersect(self, start: int, end: int) -> list[tuple[int, int]]:
        """Member runs clipped to ``[start, end)``."""
        out: list[tuple[int, int]] = []
        b = self._b
        i = bisect_right(b, start)
        i -= i & 1
        n = len(b)
        while i < n and b[i] < end:
            lo = b[i] if b[i] > start else start
            hi = b[i + 1] if b[i + 1] < end else end
            if hi > lo:
                out.append((lo, hi))
            i += 2
        return out


class PageBatch(Mapping):
    """Page contents in flight: ``versions[i]`` is the content of page
    ``vpns[i]``.

    Two equal-length int64 arrays with unique vpns, kept in the order the
    producer emitted them (a post-copy push batch stops being ascending
    once a demand fetch moves a run to the front of the queue), and never
    mutated once built, so batches may share arrays; the one exception
    is an accumulator that owns its version array (the XBZRLE cache,
    migd's staging), written by ``overlay(..., in_place=True)``.
    Consumers that need sorted keys sort a copy (:meth:`ascending`).  A
    batch reads as a ``{vpn: version}`` mapping, converted to Python ints
    a block at a time, which is what tests and the output checks compare
    it with; the simulator itself only touches the arrays.
    """

    __slots__ = ("vpns", "versions")

    def __init__(self, vpns: np.ndarray, versions: np.ndarray) -> None:
        self.vpns = vpns
        self.versions = versions

    @classmethod
    def empty(cls) -> "PageBatch":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))

    @classmethod
    def of(cls, pages: Mapping) -> "PageBatch":
        """``pages`` itself if it is a batch, else a batch of the
        ``{vpn: version}`` mapping in its iteration order."""
        if isinstance(pages, PageBatch):
            return pages
        n = len(pages)
        return cls(
            np.fromiter(pages.keys(), np.int64, n),
            np.fromiter(pages.values(), np.int64, n),
        )

    # -- mapping view ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vpns)

    def __iter__(self) -> Iterator[int]:
        return _as_ints(self.vpns)

    def __getitem__(self, vpn: int) -> int:
        hit = np.flatnonzero(self.vpns == vpn)
        if not len(hit):
            raise KeyError(vpn)
        return int(self.versions[hit[0]])

    def keys(self) -> Iterator[int]:
        return _as_ints(self.vpns)

    def values(self) -> Iterator[int]:
        return _as_ints(self.versions)

    def items(self) -> Iterator[tuple[int, int]]:
        return zip(_as_ints(self.vpns), _as_ints(self.versions))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return dict(self.items()) == dict(other.items())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PageBatch({dict(self.items())!r})"

    # -- array operations -----------------------------------------------------
    def ascending(self) -> "PageBatch":
        """This batch if its vpns ascend, else a sorted copy."""
        vpns = self.vpns
        if len(vpns) < 2 or bool((vpns[1:] > vpns[:-1]).all()):
            return self
        order = np.argsort(vpns)
        return PageBatch(vpns[order], self.versions[order])

    def _find(self, vpns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insertion points of ``vpns`` in this *ascending* batch, and
        which of them hold the vpn itself."""
        keys = self.vpns
        idx = np.searchsorted(keys, vpns)
        if not len(keys):
            return idx, np.zeros(len(vpns), bool)
        return idx, keys.take(idx, mode="clip") == vpns

    def versions_of(self, vpns: np.ndarray) -> np.ndarray:
        """Version of each of ``vpns`` in this *ascending* batch, 0 where
        a vpn is absent."""
        if not len(self.vpns):
            return np.zeros(len(vpns), np.int64)
        idx, found = self._find(vpns)
        out = self.versions.take(idx, mode="clip")
        out[~found] = 0
        return out

    def overlay(self, newer: "PageBatch", in_place: bool = False) -> "PageBatch":
        """This *ascending* batch with ``newer``'s pages laid over it:
        ``newer`` wins where both hold a page.  The result ascends.

        ``in_place`` is for a caller that owns this batch's version
        array and drops this batch for the result: when ``newer`` holds
        no new page, its versions are written into that array instead
        of a copy.  The result is again the caller's own."""
        if not len(newer):
            return self
        if not len(self):
            newer = newer.ascending()
            if in_place:
                return PageBatch(newer.vpns, newer.versions.copy())
            return newer
        idx, found = self._find(newer.vpns)
        versions = self.versions if in_place else self.versions.copy()
        if found.all():
            versions[idx] = newer.versions
            return PageBatch(self.vpns, versions)
        versions[idx[found]] = newer.versions[found]
        new = ~found
        added = newer.vpns[new]
        order = np.argsort(added)
        at = idx[new][order]
        return PageBatch(
            np.insert(self.vpns, at, added[order]),
            np.insert(versions, at, newer.versions[new][order]),
        )

    def select(self, runs: list[tuple[int, int]]) -> "PageBatch":
        """The pages of this *ascending* batch inside ``runs``, run by
        run in the order given (one slice per run, no per-page work)."""
        keys = self.vpns
        bounds = np.searchsorted(keys, np.array(runs, np.int64).ravel()).tolist()
        cuts = [slice(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2])]
        return PageBatch(
            np.concatenate([keys[c] for c in cuts]),
            np.concatenate([self.versions[c] for c in cuts]),
        )

    def runs(self) -> list[tuple[int, int, int]]:
        """``(start, end, index)`` of each maximal consecutive-vpn run of
        this *ascending* batch; ``index`` is the run's first position."""
        vpns = self.vpns
        if not len(vpns):
            return []
        firsts = [0, *(np.flatnonzero(np.diff(vpns) != 1) + 1).tolist()]
        lasts = [*firsts[1:], len(vpns)]
        starts = vpns[firsts].tolist()
        return [
            (start, start + last - first, first)
            for start, first, last in zip(starts, firsts, lasts)
        ]


#: Elements per block when a batch is read as Python ints.
_INT_BLOCK = 1 << 12


def _as_ints(arr: np.ndarray) -> Iterator[int]:
    """``arr``'s elements as Python ints, converted a block at a time: a
    full-area batch read as one list would hold every int at once."""
    return itertools.chain.from_iterable(
        arr[lo : lo + _INT_BLOCK].tolist() for lo in range(0, len(arr), _INT_BLOCK)
    )


_ZERO_PAGE = array("Q", [0])


def _new_store(npages: int) -> "array[int]":
    """Zero-version page store for a fresh mapping, allocated once and
    filled in place (``array("Q", bytes(8 * n))`` would build the zero
    bytes first and then copy them, doubling the peak)."""
    return _ZERO_PAGE * npages


class AddressSpace:
    """Per-process memory: sorted VMA list + batched dirty/version state."""

    def __init__(self) -> None:
        #: What a mapped :class:`VMArea` records as its owner.
        self.space_id = next(_space_ids)
        #: Ordered by start page, non-overlapping.
        self.vmas: list[VMArea] = []
        #: Parallel sorted key list (``vma.start`` never mutates in place).
        self._vma_starts: list[int] = []
        #: vma_id -> page store (version per page offset; see module doc).
        #: Lags behind by the deltas in :attr:`_pending`; every reader
        #: goes through :meth:`_flush_versions` first.
        self._stores: dict[int, "array[int]"] = {}
        #: Difference array of unapplied writes: boundary -> delta
        #: (``+1`` at each written range's start, ``-1`` at its end).
        self._pending: dict[int, int] = {}
        #: Pages with the dirty bit set, run-length encoded.
        self._dirty = ExtentSet()
        #: Pages mapped but not resident (post-copy migration: the VMA
        #: exists, the contents have not arrived yet).  Empty for every
        #: process outside an in-flight post-copy restore, so the guard
        #: in the write path is one cheap truthiness check.
        self._absent = ExtentSet()
        #: Cached result of :meth:`dirty_pages`; invalidated on any
        #: dirty-state change so repeated reads in the precopy loop are
        #: free (treat the returned list as read-only).
        self._dirty_cache: Optional[list[int]] = None
        #: Bumped whenever the VMA *map* changes (mmap/munmap/resize/
        #: load_snapshot).  The migration tracker compares this against
        #: its last-seen value to skip the diff scan entirely.
        self.map_version = 0
        self._next_free_page = 0x1000  # arbitrary non-zero base

    # -- mapping ------------------------------------------------------------
    def mmap(self, npages: int, perms: str = "rw", tag: str = "") -> VMArea:
        """Map a fresh area at the next free range (allocations)."""
        if npages <= 0:
            raise ValueError("npages must be positive")
        start = self._next_free_page
        self._next_free_page += npages + 16  # guard gap
        area = VMArea(start, start + npages, perms, tag)
        self._insert(area)
        return area

    def _insert(self, area: VMArea) -> None:
        idx = bisect_right(self._vma_starts, area.start)
        if idx > 0 and self.vmas[idx - 1].end > area.start:
            raise ValueError(f"{area} overlaps {self.vmas[idx - 1]}")
        if idx < len(self.vmas) and self.vmas[idx].start < area.end:
            raise ValueError(f"{area} overlaps {self.vmas[idx]}")
        self.vmas.insert(idx, area)
        self._vma_starts.insert(idx, area.start)
        self._stores[area.vma_id] = _new_store(area.end - area.start)
        area._owner = self.space_id
        # Newly mapped pages are dirty: they never reached the destination.
        self._dirty.add(area.start, area.end)
        self._dirty_cache = None
        self.map_version += 1

    def munmap(self, area: VMArea) -> None:
        """Unmap an area (frees)."""
        idx = bisect_left(self._vma_starts, area.start)
        if idx >= len(self.vmas) or self.vmas[idx] != area:
            raise ValueError(f"{area} is not mapped")
        self._flush_versions()  # before the store the sweep relies on goes away
        del self.vmas[idx]
        del self._vma_starts[idx]
        del self._stores[area.vma_id]
        area._owner = 0
        self._dirty.remove(area.start, area.end)
        if self._absent:
            self._absent.remove(area.start, area.end)
        self._dirty_cache = None
        self.map_version += 1

    def resize(self, area: VMArea, new_npages: int) -> None:
        """Grow or shrink an area in place (mremap-style modification)."""
        if new_npages <= 0:
            raise ValueError("new size must be positive")
        old_end = area.end
        new_end = area.start + new_npages
        store = self._stores[area.vma_id]
        if new_end > old_end:
            idx = bisect_right(self._vma_starts, area.start)
            if idx < len(self.vmas) and self.vmas[idx].start < new_end:
                raise ValueError("resize would overlap a neighbouring VMA")
            store.extend(_new_store(new_end - old_end))
            self._dirty.add(old_end, new_end)
        elif new_end < old_end:
            self._flush_versions()
            del store[new_npages:]
            self._dirty.remove(new_end, old_end)
            if self._absent:
                self._absent.remove(new_end, old_end)
        area.end = new_end
        self._dirty_cache = None
        self.map_version += 1

    def find_vma(self, vpn: int) -> Optional[VMArea]:
        idx = bisect_right(self._vma_starts, vpn) - 1
        if idx >= 0:
            area = self.vmas[idx]
            if vpn < area.end:
                return area
        return None

    # -- page access ----------------------------------------------------------
    def write_page(self, vpn: int) -> None:
        """Simulate a store to a page: sets the dirty bit, bumps version."""
        if self.find_vma(vpn) is None:
            raise ValueError(f"page fault: page {vpn:#x} is not mapped")
        if self._absent and vpn in self._absent:
            raise ValueError(f"page fault: page {vpn:#x} is not resident")
        pending = self._pending
        end = vpn + 1
        pending[vpn] = pending.get(vpn, 0) + 1
        pending[end] = pending.get(end, 0) - 1
        if self._dirty.add(vpn, end):
            self._dirty_cache = None

    def write_range(self, area: VMArea, count: int, offset: int = 0) -> None:
        """Write ``count`` consecutive pages of ``area`` starting at offset.

        O(log n): two boundary-delta bumps for the versions plus one
        extent merge for the dirty bits, regardless of ``count``.
        """
        if offset < 0 or offset + count > area.end - area.start:
            raise ValueError("write range outside area")
        if count <= 0:
            return
        start = area.start + offset
        end = start + count
        if area._owner != self.space_id:
            # Stale reference (unmapped, or a pre-restore VMA object held
            # across a migration): fall back to an address lookup — the
            # write is legal iff a live VMA covers the range.
            live = self.find_vma(start)
            if live is None or end > live.end:
                vpn = start if live is None else live.end
                raise ValueError(f"page fault: page {vpn:#x} is not mapped")
        if self._absent and self._absent.covered(start, end):
            vpn = self._absent.intersect(start, end)[0][0]
            raise ValueError(f"page fault: page {vpn:#x} is not resident")
        pending = self._pending
        pending[start] = pending.get(start, 0) + 1
        pending[end] = pending.get(end, 0) - 1
        if self._dirty.add(start, end):
            self._dirty_cache = None

    def _flush_versions(self) -> None:
        """Fold the pending write deltas into the per-VMA page stores.

        One sorted sweep over the recorded boundaries; each segment with
        a positive cumulative delta is bumped with one numpy slice
        addition per VMA it spans (adjacent restored VMAs can share one
        written segment).  N writes to the same hot range between
        flushes collapse into a single +N bump per page.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = {}
        cum = 0
        prev = 0
        for bound in sorted(pending):
            if cum > 0:
                self._bump_segment(prev, bound, cum)
            cum += pending[bound]
            prev = bound
        # Boundary deltas sum to zero, so the sweep always ends at cum == 0.

    def _bump_segment(self, start: int, end: int, cum: int) -> None:
        """Apply ``+cum`` to every page version in ``[start, end)``."""
        starts = self._vma_starts
        vmas = self.vmas
        stores = self._stores
        while start < end:
            area = vmas[bisect_right(starts, start) - 1]
            hi = end if end < area.end else area.end
            # A transient numpy view: the add runs in C, and the view
            # dies with the statement (no lasting export).
            np.frombuffer(stores[area.vma_id], np.int64)[
                start - area.start : hi - area.start
            ] += cum
            start = hi

    def page_version(self, vpn: int) -> int:
        self._flush_versions()
        area = self.find_vma(vpn)
        if area is None:
            raise KeyError(vpn)
        return self._stores[area.vma_id][vpn - area.start]

    def is_dirty(self, vpn: int) -> bool:
        return vpn in self._dirty

    # -- dirty tracking (what mig_mod's tracking loop consumes) --------------
    def dirty_pages(self) -> list[int]:
        """Sorted list of pages with the dirty bit set (cached view).

        The returned list is shared until the next dirty-state change;
        callers must not mutate it.
        """
        cache = self._dirty_cache
        if cache is None:
            cache = self._dirty.pages()
            self._dirty_cache = cache
        return cache

    def dirty_extents(self) -> list[tuple[int, int]]:
        """Sorted disjoint ``(start, end)`` runs of dirty pages."""
        return self._dirty.extents()

    def dirty_count(self) -> int:
        return len(self._dirty)

    def clear_dirty(self, vpns: Optional[list[int]] = None) -> None:
        """Clear dirty bits (all, or just the dumped subset)."""
        if vpns is None:
            self._dirty.clear()
        else:
            for start, end in _coalesce(vpns):
                self._dirty.remove(start, end)
        self._dirty_cache = None

    def _gather(self, runs: Iterable[tuple[int, int]]) -> PageBatch:
        """The versions of ascending mapped ``runs`` as one batch, copied
        out of the page stores run slice by run slice (split at VMA
        boundaries).  The slices are transient views that
        ``np.concatenate`` copies, so the batch never aliases a store:
        later writes do not leak into an in-flight dump, and no export
        pins a store's buffer against a later ``resize``."""
        self._flush_versions()
        starts = self._vma_starts
        vmas = self.vmas
        stores = self._stores
        vpns: list[np.ndarray] = []
        versions: list[np.ndarray] = []
        for start, end in runs:
            while start < end:
                area = vmas[bisect_right(starts, start) - 1]
                hi = end if end < area.end else area.end
                versions.append(
                    np.frombuffer(
                        stores[area.vma_id], np.int64, hi - start, 8 * (start - area.start)
                    )
                )
                vpns.append(np.arange(start, hi, dtype=np.int64))
                start = hi
        if not vpns:
            return PageBatch.empty()
        return PageBatch(np.concatenate(vpns), np.concatenate(versions))

    def dirty_version_map(self) -> PageBatch:
        """Every dirty page with its version, ascending."""
        return self._gather(self._dirty.extents())

    # -- post-copy residency (pages mapped but not yet fetched) --------------
    def mark_absent(self, extents: list[tuple[int, int]]) -> None:
        """Mark ``(start, end)`` runs as mapped-but-not-resident."""
        for start, end in extents:
            self._absent.add(start, end)

    def absent_in(self, start: int, end: int) -> list[tuple[int, int]]:
        """Absent runs clipped to ``[start, end)``."""
        return self._absent.intersect(start, end) if self._absent else []

    def absent_extents(self) -> list[tuple[int, int]]:
        return self._absent.extents()

    @property
    def absent_count(self) -> int:
        return len(self._absent)

    @property
    def has_absent(self) -> bool:
        return bool(self._absent)

    def install_pages(self, pages: PageBatch) -> None:
        """Install fetched page contents (post-copy demand/push path).

        Versions land exactly as sent, the pages become resident, and
        they stay *clean* — installing remote contents is not a local
        store, so a subsequent migration away must not re-send them
        unless the workload writes them again.  Written run by run, one
        slice per run and VMA.
        """
        batch = pages.ascending()
        versions = batch.versions
        starts = self._vma_starts
        vmas = self.vmas
        stores = self._stores
        for start, end, i in batch.runs():
            self._absent.remove(start, end)
            while start < end:
                area = vmas[bisect_right(starts, start) - 1]
                hi = end if end < area.end else area.end
                j = i + (hi - start)
                _scatter(
                    stores[area.vma_id],
                    slice(start - area.start, hi - area.start),
                    versions[i:j],
                )
                start = hi
                i = j

    # -- whole-space views ------------------------------------------------------
    @property
    def total_pages(self) -> int:
        return sum(a.npages for a in self.vmas)

    @property
    def total_bytes(self) -> int:
        return self.total_pages * PAGE_SIZE

    def content_snapshot(self) -> PageBatch:
        """Every mapped page with its version, ascending."""
        return self._gather([(area.start, area.end) for area in self.vmas])

    def load_snapshot(
        self, vmas: list[tuple[int, int, str, str]], versions: Mapping
    ) -> None:
        """Rebuild this (empty) space from checkpointed state: page
        versions from ``versions``, a :class:`PageBatch` (any
        ``{vpn: version}`` mapping is converted).  Versions of pages
        outside ``vmas`` are ignored; each VMA's pages are scattered into
        its fresh store in one step."""
        if self.vmas:
            raise RuntimeError("load_snapshot requires an empty address space")
        for start, end, perms, tag in vmas:
            area = VMArea(start, end, perms, tag)
            insort(self.vmas, area, key=lambda a: a.start)
        self._vma_starts = [a.start for a in self.vmas]
        batch = PageBatch.of(versions).ascending()
        keys = batch.vpns
        bounds = np.searchsorted(
            keys, [bound for a in self.vmas for bound in (a.start, a.end)]
        ).tolist()
        self._stores = {}
        for k, area in enumerate(self.vmas):
            area._owner = self.space_id
            lo, hi = bounds[2 * k], bounds[2 * k + 1]
            store = _new_store(area.end - area.start)
            _scatter(store, keys[lo:hi] - area.start, batch.versions[lo:hi])
            self._stores[area.vma_id] = store
        self._pending = {}
        self._dirty = ExtentSet()
        self._absent = ExtentSet()
        self._dirty_cache = None
        self.map_version += 1
        if self.vmas:
            self._next_free_page = max(a.end for a in self.vmas) + 16


def _scatter(store: "array[int]", where: Union[slice, np.ndarray], values: np.ndarray) -> None:
    """``store[where] = values`` for a page store, done by numpy
    through a view that dies on return (so no export outlives the call
    to pin the array against a later resize)."""
    np.frombuffer(store, np.int64)[where] = values


def _coalesce(vpns: list[int]) -> Iterator[tuple[int, int]]:
    """Group a page-number list into sorted ``(start, end)`` runs."""
    if not vpns:
        return
    ordered = vpns
    prev = ordered[0]
    for vpn in ordered:
        if vpn < prev:
            ordered = sorted(vpns)
            break
        prev = vpn
    start = prev = ordered[0]
    for vpn in ordered[1:]:
        if vpn == prev or vpn == prev + 1:
            prev = vpn
            continue
        yield (start, prev + 1)
        start = prev = vpn
    yield (start, prev + 1)
