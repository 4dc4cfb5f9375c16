"""Unit tests for address spaces, VMAs and dirty-bit tracking."""

import pytest

from repro.oskern import AddressSpace, PAGE_SIZE


@pytest.fixture
def space():
    return AddressSpace()


class TestMapping:
    def test_mmap_creates_area(self, space):
        area = space.mmap(10, tag="heap")
        assert area.npages == 10
        assert area.nbytes == 10 * PAGE_SIZE
        assert space.total_pages == 10

    def test_mmap_areas_do_not_overlap(self, space):
        a = space.mmap(10)
        b = space.mmap(10)
        assert a.end <= b.start or b.end <= a.start

    def test_empty_area_rejected(self, space):
        with pytest.raises(ValueError):
            space.mmap(0)

    def test_munmap(self, space):
        a = space.mmap(5)
        space.munmap(a)
        assert space.total_pages == 0
        with pytest.raises(ValueError):
            space.munmap(a)

    def test_find_vma(self, space):
        a = space.mmap(5)
        assert space.find_vma(a.start) is a
        assert space.find_vma(a.end) is not a

    def test_resize_grow_and_shrink(self, space):
        a = space.mmap(5)
        space.resize(a, 8)
        assert a.npages == 8
        # New pages are dirty (never transferred).
        assert all(space.is_dirty(v) for v in range(a.start + 5, a.start + 8))
        space.resize(a, 3)
        assert a.npages == 3
        with pytest.raises(KeyError):
            space.page_version(a.start + 5)

    def test_resize_overlap_rejected(self, space):
        a = space.mmap(5)
        space.mmap(5)  # neighbour
        with pytest.raises(ValueError):
            space.resize(a, 1000)

    def test_resize_to_zero_rejected(self, space):
        a = space.mmap(5)
        with pytest.raises(ValueError):
            space.resize(a, 0)


class TestDirtyTracking:
    def test_fresh_pages_are_dirty(self, space):
        a = space.mmap(4)
        assert space.dirty_count() == 4
        assert space.dirty_pages() == list(a.pages())

    def test_write_sets_dirty_and_bumps_version(self, space):
        a = space.mmap(2)
        space.clear_dirty()
        v0 = space.page_version(a.start)
        space.write_page(a.start)
        assert space.is_dirty(a.start)
        assert not space.is_dirty(a.start + 1)
        assert space.page_version(a.start) == v0 + 1

    def test_write_unmapped_page_faults(self, space):
        with pytest.raises(ValueError, match="page fault"):
            space.write_page(999999)

    def test_clear_dirty_subset(self, space):
        a = space.mmap(4)
        space.clear_dirty([a.start, a.start + 1])
        assert space.dirty_pages() == [a.start + 2, a.start + 3]

    def test_write_range(self, space):
        a = space.mmap(10)
        space.clear_dirty()
        space.write_range(a, count=3, offset=2)
        assert space.dirty_pages() == [a.start + 2, a.start + 3, a.start + 4]

    def test_write_range_bounds(self, space):
        a = space.mmap(4)
        with pytest.raises(ValueError):
            space.write_range(a, count=5)
        with pytest.raises(ValueError):
            space.write_range(a, count=1, offset=-1)

    def test_munmap_clears_dirty(self, space):
        a = space.mmap(4)
        space.munmap(a)
        assert space.dirty_count() == 0


class TestSnapshot:
    def test_content_snapshot_round_trip(self, space):
        a = space.mmap(3, tag="heap")
        b = space.mmap(2, tag="stack")
        space.write_page(a.start)
        space.write_page(a.start)
        snap_vmas = [(v.start, v.end, v.perms, v.tag) for v in space.vmas]
        versions = space.content_snapshot()

        dest = AddressSpace()
        dest.load_snapshot(snap_vmas, versions)
        assert dest.total_pages == 5
        assert dest.page_version(a.start) == 2
        assert dest.page_version(b.start) == 0
        assert dest.dirty_count() == 0  # restored pages are clean

    def test_overlay_wins_over_versions(self, space):
        """Restoring a ``PageBatch.overlay`` of newer pages on the staged
        ones (the restart path) reads exactly like restoring the merged
        dict, and ignores unmapped pages."""
        from repro.oskern.memory import PageBatch

        a = space.mmap(6)
        vmas = [(v.start, v.end, v.perms, v.tag) for v in space.vmas]
        versions = {a.start: 3, a.start + 1: 4, a.start + 2: 5}
        overlay = {a.start + 1: 9, a.start + 2: 0, a.start + 4: 1, a.end + 50: 7}
        merged = AddressSpace()
        merged.load_snapshot(vmas, {**versions, **overlay})
        layered = AddressSpace()
        layered.load_snapshot(
            vmas, PageBatch.of(versions).ascending().overlay(PageBatch.of(overlay))
        )
        assert layered.content_snapshot() == merged.content_snapshot()
        assert layered.page_version(a.start + 1) == 9
        assert layered.page_version(a.start + 2) == 0
        assert layered.dirty_count() == 0

    def test_load_snapshot_requires_empty(self, space):
        space.mmap(1)
        with pytest.raises(RuntimeError):
            space.load_snapshot([], {})

    def test_restored_space_can_mmap_more(self, space):
        a = space.mmap(3)
        dest = AddressSpace()
        dest.load_snapshot(
            [(v.start, v.end, v.perms, v.tag) for v in space.vmas],
            space.content_snapshot(),
        )
        fresh = dest.mmap(2)
        assert fresh.start >= a.end  # no overlap with restored areas


class TestExtentSet:
    def test_add_merges_touching_runs(self):
        from repro.oskern.memory import ExtentSet

        s = ExtentSet()
        assert s.add(0, 4) == 4
        assert s.add(8, 12) == 4
        assert s.extents() == [(0, 4), (8, 12)]
        # Bridges the gap and both neighbours collapse into one run.
        assert s.add(4, 8) == 4
        assert s.extents() == [(0, 12)]
        assert len(s) == 12

    def test_add_overlapping_counts_only_new(self):
        from repro.oskern.memory import ExtentSet

        s = ExtentSet()
        s.add(0, 10)
        assert s.add(5, 15) == 5
        assert s.extents() == [(0, 15)]

    def test_remove_splits_run(self):
        from repro.oskern.memory import ExtentSet

        s = ExtentSet()
        s.add(0, 10)
        assert s.remove(3, 7) == 4
        assert s.extents() == [(0, 3), (7, 10)]
        assert 2 in s and 3 not in s and 6 not in s and 7 in s
        assert len(s) == 6

    def test_remove_across_runs(self):
        from repro.oskern.memory import ExtentSet

        s = ExtentSet()
        s.add(0, 4)
        s.add(8, 12)
        s.add(20, 24)
        assert s.remove(2, 22) == 2 + 4 + 2
        assert s.extents() == [(0, 2), (22, 24)]

    def test_pages_and_clear(self):
        from repro.oskern.memory import ExtentSet

        s = ExtentSet()
        s.add(3, 5)
        s.add(9, 10)
        assert s.pages() == [3, 4, 9]
        s.clear()
        assert not s and s.extents() == []


class TestAdjacentVMAs:
    """_insert/resize bisect edge cases: areas that exactly touch."""

    def test_insert_exactly_adjacent_areas(self, space):
        from repro.oskern.memory import VMArea

        mid = VMArea(100, 110)
        space._insert(mid)
        # Exactly touching on both sides is legal (end is exclusive).
        space._insert(VMArea(90, 100))
        space._insert(VMArea(110, 120))
        assert [(v.start, v.end) for v in space.vmas] == [
            (90, 100),
            (100, 110),
            (110, 120),
        ]
        # Boundary lookups resolve to the owning area, not a neighbour.
        assert space.find_vma(99).start == 90
        assert space.find_vma(100) is mid
        assert space.find_vma(109) is mid
        assert space.find_vma(110).start == 110

    def test_insert_one_page_overlap_rejected(self, space):
        from repro.oskern.memory import VMArea

        space._insert(VMArea(100, 110))
        with pytest.raises(ValueError, match="overlaps"):
            space._insert(VMArea(95, 101))  # clips predecessor's last page
        with pytest.raises(ValueError, match="overlaps"):
            space._insert(VMArea(109, 115))  # clips successor's first page

    def test_resize_grow_to_exact_neighbour_boundary(self, space):
        from repro.oskern.memory import VMArea

        a = VMArea(100, 105)
        space._insert(a)
        space._insert(VMArea(110, 115))
        space.resize(a, 10)  # grows to end == 110, exactly touching
        assert a.end == 110
        with pytest.raises(ValueError, match="overlap"):
            space.resize(a, 11)

    def test_adjacent_dirty_state_stays_per_area(self, space):
        from repro.oskern.memory import VMArea

        a, b = VMArea(100, 104), VMArea(104, 108)
        space._insert(a)
        space._insert(b)
        space.clear_dirty()
        space.write_range(a, count=4)
        assert space.dirty_pages() == [100, 101, 102, 103]
        space.munmap(a)
        # b's pages survive with versions intact; a's are gone.
        assert space.dirty_count() == 0
        assert space.page_version(104) == 0
        with pytest.raises(KeyError):
            space.page_version(103)


class TestDirtyExtents:
    def test_dirty_extents_merges_ranges(self, space):
        a = space.mmap(32)
        space.clear_dirty()
        space.write_range(a, count=4, offset=0)
        space.write_range(a, count=4, offset=8)
        space.write_range(a, count=4, offset=4)  # bridges the two
        assert space.dirty_extents() == [(a.start, a.start + 12)]
        assert space.dirty_count() == 12


class TestDirtyPagesCache:
    """dirty_pages() must not re-materialize per call (regression guard)."""

    def _spy(self, space):
        from repro.oskern.memory import ExtentSet

        calls = {"n": 0}

        class CountingExtents(ExtentSet):
            def pages(self):
                calls["n"] += 1
                return super().pages()

        spy = CountingExtents()
        spy._b[:] = space._dirty._b
        spy._count = space._dirty._count
        space._dirty = spy
        return calls

    def test_repeated_calls_materialize_once(self, space):
        a = space.mmap(64)
        space.clear_dirty()
        space.write_range(a, count=10)
        calls = self._spy(space)
        first = space.dirty_pages()
        for _ in range(50):
            assert space.dirty_pages() is first
        assert calls["n"] == 1

    def test_write_invalidates_cache(self, space):
        a = space.mmap(64)
        space.clear_dirty()
        space.write_range(a, count=4)
        calls = self._spy(space)
        space.dirty_pages()
        space.write_page(a.start + 20)
        assert space.dirty_pages() == [*range(a.start, a.start + 4), a.start + 20]
        assert calls["n"] == 2

    def test_clear_invalidates_cache(self, space):
        a = space.mmap(8)
        space.dirty_pages()
        calls = self._spy(space)
        space.clear_dirty([a.start])
        assert space.dirty_pages() == list(range(a.start + 1, a.end))
        assert calls["n"] == 1
