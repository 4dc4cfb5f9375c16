"""Page memory is freed by reference counting, and allocated once.

Every test runs with the cyclic collector off: a page store that only
the collector could free would outlive its address space.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.oskern import AddressSpace


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_dropped_space_frees_its_stores(no_gc):
    space = AddressSpace()
    area = space.mmap(64)
    space.write_range(area, 8)
    store = weakref.ref(space._stores[area.vma_id])
    dropped = weakref.ref(space)
    del space
    assert dropped() is None
    assert store() is None
    # The caller's VMArea outlives the space without pinning it, and a
    # new space does not take it for one of its own areas.
    other = AddressSpace()
    with pytest.raises(ValueError, match="not mapped"):
        other.write_range(area, 1)


@pytest.mark.parametrize("npages", [1 << 10, 1 << 17])
def test_mmap_allocates_its_store_once(npages):
    space = AddressSpace()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        space.mmap(npages)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * npages + 4096
