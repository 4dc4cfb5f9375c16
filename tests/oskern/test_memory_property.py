"""Property test: extent-based dirty tracking == the old set semantics.

The batched write path (ExtentSet + difference-array versions) must be
*observationally indistinguishable* from the original per-page
implementation (``dirty: set``, ``versions: dict`` bumped on every
write).  We drive both through seeded random sequences of every mutating
operation and compare every observable after each step.
"""

import random

import pytest

from repro.oskern import AddressSpace


class ReferenceSpace:
    """The pre-extent per-page implementation, kept as an oracle."""

    def __init__(self):
        self.areas = []  # (start, end) in insertion order, like vmas
        self.versions = {}
        self.dirty = set()

    def mmap(self, start, end):
        self.areas.append([start, end])
        for vpn in range(start, end):
            self.versions[vpn] = 0
            self.dirty.add(vpn)

    def munmap(self, idx):
        start, end = self.areas.pop(idx)
        for vpn in range(start, end):
            del self.versions[vpn]
            self.dirty.discard(vpn)

    def resize(self, idx, new_npages):
        start, end = self.areas[idx]
        new_end = start + new_npages
        if new_end > end:
            for vpn in range(end, new_end):
                self.versions[vpn] = 0
                self.dirty.add(vpn)
        else:
            for vpn in range(new_end, end):
                del self.versions[vpn]
                self.dirty.discard(vpn)
        self.areas[idx][1] = new_end

    def write_page(self, vpn):
        if vpn not in self.versions:
            raise ValueError("page fault")
        self.versions[vpn] += 1
        self.dirty.add(vpn)

    def write_range(self, idx, count, offset):
        start, _ = self.areas[idx]
        for vpn in range(start + offset, start + offset + count):
            self.write_page(vpn)

    def clear_dirty(self, vpns=None):
        if vpns is None:
            self.dirty.clear()
        else:
            self.dirty.difference_update(vpns)


def _check_equivalent(space, ref, sample_rng):
    assert space.dirty_count() == len(ref.dirty)
    assert space.dirty_pages() == sorted(ref.dirty)
    # Extents, flattened, are exactly the dirty pages.
    flat = [v for s, e in space.dirty_extents() for v in range(s, e)]
    assert flat == sorted(ref.dirty)
    assert space.total_pages == len(ref.versions)
    # Probe versions/is_dirty at a sample of mapped and unmapped pages.
    mapped = list(ref.versions)
    probes = sample_rng.sample(mapped, min(len(mapped), 32)) if mapped else []
    for vpn in probes:
        assert space.page_version(vpn) == ref.versions[vpn]
        assert space.is_dirty(vpn) == (vpn in ref.dirty)
    for vpn in (0, 10**9):
        if vpn not in ref.versions:
            with pytest.raises(KeyError):
                space.page_version(vpn)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_random_op_sequences_match_reference(seed):
    rng = random.Random(seed)
    sample_rng = random.Random(seed + 1000)
    space = AddressSpace()
    ref = ReferenceSpace()
    live = []  # VMArea objects, parallel to ref.areas

    for step in range(300):
        ops = ["write_page", "write_range", "write_range", "clear_some", "clear_all"]
        if len(live) < 6:
            ops += ["mmap", "mmap"]
        if live:
            ops += ["munmap", "resize"]
        op = rng.choice(ops)

        if op == "mmap":
            npages = rng.randint(1, 40)
            area = space.mmap(npages)
            ref.mmap(area.start, area.end)
            live.append(area)
        elif op == "munmap":
            idx = rng.randrange(len(live))
            space.munmap(live.pop(idx))
            ref.munmap(idx)
        elif op == "resize":
            idx = rng.randrange(len(live))
            area = live[idx]
            # mmap's guard gap gives bounded headroom to grow into.
            new_npages = rng.randint(1, area.npages + 8)
            try:
                space.resize(area, new_npages)
            except ValueError:
                continue  # overlapped a neighbour; oracle untouched
            ref.resize(idx, new_npages)
        elif op == "write_page" and live:
            area = rng.choice(live)
            vpn = rng.randrange(area.start, area.end)
            space.write_page(vpn)
            ref.write_page(vpn)
        elif op == "write_range" and live:
            idx = rng.randrange(len(live))
            area = live[idx]
            offset = rng.randrange(area.npages)
            count = rng.randint(1, area.npages - offset)
            space.write_range(area, count, offset)
            ref.write_range(idx, count, offset)
        elif op == "clear_some":
            vpns = sorted(
                sample_rng.sample(sorted(ref.dirty), min(len(ref.dirty), 16))
            )
            space.clear_dirty(vpns)
            ref.clear_dirty(vpns)
        elif op == "clear_all":
            space.clear_dirty()
            ref.clear_dirty()

        if step % 10 == 0:
            _check_equivalent(space, ref, sample_rng)

    _check_equivalent(space, ref, sample_rng)
    # Final deep check: the dump view matches the oracle exactly.
    assert space.dirty_version_map() == {v: ref.versions[v] for v in ref.dirty}
    assert space.content_snapshot() == ref.versions


def test_unmapped_write_faults_match():
    space = AddressSpace()
    area = space.mmap(4)
    space.munmap(area)
    with pytest.raises(ValueError, match="page fault"):
        space.write_page(area.start)
    with pytest.raises(ValueError):
        space.write_range(area, count=1)


def _random_workload(space, ref, seed, steps=120):
    """Drive both spaces through a short seeded mutation sequence."""
    rng = random.Random(seed)
    live = []
    for _ in range(steps):
        ops = ["write_range", "write_range", "write_page", "clear_all"]
        if len(live) < 5:
            ops += ["mmap", "mmap"]
        if live:
            ops += ["munmap", "resize"]
        op = rng.choice(ops)
        if op == "mmap":
            area = space.mmap(rng.randint(1, 40))
            ref.mmap(area.start, area.end)
            live.append(area)
        elif op == "munmap":
            idx = rng.randrange(len(live))
            space.munmap(live.pop(idx))
            ref.munmap(idx)
        elif op == "resize":
            idx = rng.randrange(len(live))
            area = live[idx]
            new_npages = rng.randint(1, area.npages + 8)
            try:
                space.resize(area, new_npages)
            except ValueError:
                continue
            ref.resize(idx, new_npages)
        elif op == "write_page" and live:
            area = rng.choice(live)
            vpn = rng.randrange(area.start, area.end)
            space.write_page(vpn)
            ref.write_page(vpn)
        elif op == "write_range" and live:
            idx = rng.randrange(len(live))
            area = live[idx]
            offset = rng.randrange(area.npages)
            count = rng.randint(1, area.npages - offset)
            space.write_range(area, count, offset)
            ref.write_range(idx, count, offset)
        elif op == "clear_all":
            space.clear_dirty()
            ref.clear_dirty()
    return live


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_dump_runs_and_bytes_match_reference(seed):
    """dirty_version_map (the production dump path) equals the oracle's
    dump in ascending page order, and the serialized page-dump size
    derived from it matches the per-page accounting blcr.checkpoint
    uses."""
    from repro.blcr.checkpoint import PAGE_RECORD_OVERHEAD
    from repro.oskern import PAGE_SIZE

    space = AddressSpace()
    ref = ReferenceSpace()
    _random_workload(space, ref, seed)

    vmap = space.dirty_version_map()
    assert vmap == {v: ref.versions[v] for v in ref.dirty}
    assert list(vmap) == sorted(vmap)

    assert len(vmap) * (PAGE_SIZE + PAGE_RECORD_OVERHEAD) == len(ref.dirty) * (
        PAGE_SIZE + PAGE_RECORD_OVERHEAD
    )


def test_dump_snapshot_unaffected_by_post_dump_writes():
    """The dump is a stable snapshot: writes landing after the dump (the
    next precopy round dirtying pages mid-transfer) must not alias into
    the already-materialized map."""
    space = AddressSpace()
    area = space.mmap(64)
    space.clear_dirty()
    space.write_range(area, count=16, offset=8)

    vmap = space.dirty_version_map()
    frozen_map = dict(vmap)

    # Hammer the same pages (and new ones) after the dump.
    for _ in range(5):
        space.write_range(area, count=32, offset=0)
    space.resize(area, 32)

    assert vmap == frozen_map
    # And the *new* dump sees the post-dump writes.
    assert space.dirty_version_map() != frozen_map
