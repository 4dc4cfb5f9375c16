"""PageBatch array operations against ``{vpn: version}`` dict oracles."""

from hypothesis import given, settings, strategies as st

from repro.oskern import AddressSpace
from repro.oskern.memory import PageBatch

pages = st.dictionaries(st.integers(0, 200), st.integers(0, 50), max_size=60)


def ascending_batch(d: dict) -> PageBatch:
    return PageBatch.of(dict(sorted(d.items())))


def is_ascending(batch: PageBatch) -> bool:
    vpns = list(batch)
    return vpns == sorted(set(vpns))


@given(pages, pages)
@settings(max_examples=150, deadline=None)
def test_overlay_is_a_dict_merge_that_stays_ascending(older, newer):
    merged = ascending_batch(older).overlay(PageBatch.of(newer))
    assert merged == {**older, **newer}
    assert is_ascending(merged)


@given(pages, pages)
@settings(max_examples=100, deadline=None)
def test_in_place_overlay_leaves_the_newer_batch_alone(older, newer):
    """An in-place overlay writes only into the (owned) older batch, and
    its result never shares a version array with ``newer``."""
    sent = PageBatch.of(newer)
    merged = ascending_batch(older).overlay(sent, in_place=True)
    assert merged == {**older, **newer}
    assert is_ascending(merged)
    merged.versions[:] += 1
    assert sent == newer


@given(pages, st.lists(st.integers(0, 200), max_size=30))
@settings(max_examples=100, deadline=None)
def test_versions_of_reads_zero_for_absent(stored, wanted):
    import numpy as np

    batch = ascending_batch(stored)
    got = batch.versions_of(np.array(wanted, np.int64)).tolist()
    assert got == [stored.get(vpn, 0) for vpn in wanted]


@given(pages, st.lists(st.tuples(st.integers(0, 210), st.integers(0, 40)), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_select_keeps_run_order(stored, spans):
    # Disjoint runs in a shuffled order, like a re-prioritized push queue.
    runs, taken = [], set()
    for start, length in spans:
        run = range(start, start + length)
        if taken.isdisjoint(run):
            taken.update(run)
            runs.append((start, start + length))
    runs.reverse()
    got = ascending_batch(stored).select(runs)
    want = [(v, stored[v]) for s, e in runs for v in range(s, e) if v in stored]
    assert list(got.items()) == want


@given(st.sets(st.integers(0, 120), max_size=60))
@settings(max_examples=100, deadline=None)
def test_runs_cover_each_consecutive_stretch(vpns):
    batch = ascending_batch({v: 1 for v in vpns})
    runs = batch.runs()
    assert [v for s, e, _ in runs for v in range(s, e)] == sorted(vpns)
    assert [i for _, _, i in runs] == [sorted(vpns).index(s) for s, _, _ in runs]
    assert all(e < s2 for (_, e, _), (s2, _, _) in zip(runs, runs[1:]))


def test_install_pages_in_push_order():
    """A non-ascending batch whose runs cross from one VMA into the
    adjacent one lands exactly, leaves the rest absent and the installed
    pages clean."""
    vmas = [(100, 108, "rw", "a"), (108, 116, "rw", "b"), (140, 148, "rw", "c")]
    space = AddressSpace()
    space.load_snapshot(vmas, {})
    space.mark_absent([(100, 116), (140, 148)])

    push = {142: 7, 143: 8, 106: 5, 107: 6, 108: 9, 109: 3, 100: 0}
    space.install_pages(PageBatch.of(push))

    assert space.content_snapshot() == {
        vpn: push.get(vpn, 0) for start, end, _, _ in vmas for vpn in range(start, end)
    }
    assert space.absent_extents() == [(101, 106), (110, 116), (140, 142), (144, 148)]
    assert space.dirty_count() == 0
