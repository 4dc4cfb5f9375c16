"""The array page compressor against the per-page reference loop.

``PageCompressor.compress`` accounts a whole batch with array
operations.  The loop below is the per-page accounting it replaced,
kept as the oracle: over successive batches (so the XBZRLE cache
evolves), both must agree exactly on the wire bytes, the zero/delta/full
counts, the cumulative stats and the ``cpu`` float, bit for bit.
"""

from dataclasses import asdict
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.blcr.checkpoint import PAGE_RECORD_OVERHEAD
from repro.core import compress
from repro.core.compress import CompressStats, PageCompressor
from repro.oskern import PAGE_SIZE
from repro.oskern.costs import CostModel
from repro.oskern.memory import PageBatch

FULL_PAGE = PAGE_SIZE + PAGE_RECORD_OVERHEAD


class ReferenceCompressor:
    """One ``{vpn: version}`` page at a time, in batch order."""

    def __init__(self, mode: str, costs: CostModel) -> None:
        self.mode = mode
        self.costs = costs
        self.stats = CompressStats()
        self.cache: dict[int, int] = {}

    def compress(self, pages: dict[int, int]) -> tuple[int, float]:
        costs = self.costs
        wire = 0
        cpu = 0.0
        zero = delta = full = 0
        xbzrle = self.mode == "xbzrle"
        for vpn, version in pages.items():
            cpu += costs.zero_scan_cost
            if version == 0:
                wire += costs.zero_page_bytes
                zero += 1
                continue
            if xbzrle:
                cached = self.cache.get(vpn)
                if cached is not None and 0 < cached < version:
                    cpu += costs.xbzrle_encode_cost
                    enc = PAGE_RECORD_OVERHEAD + min(
                        PAGE_SIZE, costs.xbzrle_delta_bytes * (version - cached)
                    )
                    if enc < FULL_PAGE:
                        wire += enc
                        delta += 1
                        continue
            wire += FULL_PAGE
            full += 1
        if xbzrle:
            self.cache.update(pages)
        st = self.stats
        st.pages += len(pages)
        st.raw_bytes += len(pages) * FULL_PAGE
        st.wire_bytes += wire
        st.zero_pages += zero
        st.delta_pages += delta
        st.full_pages += full
        st.cpu_seconds += cpu
        return wire, cpu


#: One batch: unique vpns from a small universe (so later batches hit the
#: cache), in whatever order hypothesis draws them, with versions whose
#: distance to a cached copy is sometimes under 16 steps (the delta pays,
#: ``xbzrle_delta_bytes`` = 256) and sometimes not (it falls back to the
#: full page), plus zero pages.
batches = st.lists(
    st.lists(
        st.tuples(st.integers(0, 48), st.integers(0, 40)),
        min_size=1,
        max_size=40,
        unique_by=lambda page: page[0],
    ),
    min_size=1,
    max_size=6,
)

#: A post-copy push after a demand fetch: the run after the fetched range
#: comes first, so the batch is not ascending.
PUSH_AFTER_FETCH = [
    [(vpn, 5) for vpn in range(0, 16)],
    [(vpn, 9) for vpn in range(10, 16)] + [(vpn, 30) for vpn in range(0, 6)],
    [(vpn, 0) for vpn in range(20, 24)] + [(vpn, 12) for vpn in range(6, 8)],
]


def _run_both(mode: str, batches_drawn) -> tuple[PageCompressor, ReferenceCompressor]:
    costs = CostModel()
    fast = PageCompressor(mode, costs)
    ref = ReferenceCompressor(mode, costs)
    sent = []
    for pages in batches_drawn:
        as_dict = dict(pages)
        batch = PageBatch.of(as_dict)
        sent.append((batch, as_dict))
        got = fast.compress(batch)
        want = ref.compress(as_dict)
        # ``==`` on the float too: the cpu sum must be bit-identical.
        assert got == want
        assert type(got[0]) is int and type(got[1]) is float
        # Equal running stats after every call mean equal per-call
        # zero/delta/full counts as well.
        assert fast.stats == ref.stats
        assert all(type(v) in (int, float) for v in asdict(fast.stats).values())
    # The cache is updated in place, but never through a batch it was
    # handed: those are still on the wire and in the staging.
    assert all(batch == as_dict for batch, as_dict in sent)
    return fast, ref


@given(batches)
@settings(max_examples=150, deadline=None)
@example(PUSH_AFTER_FETCH)
def test_xbzrle_matches_reference_loop(batches_drawn):
    _run_both("xbzrle", batches_drawn)


@given(batches)
@settings(max_examples=60, deadline=None)
@example(PUSH_AFTER_FETCH)
def test_zero_page_matches_reference_loop(batches_drawn):
    _run_both("zero-page", batches_drawn)


@given(batches)
@settings(max_examples=60, deadline=None)
@example(PUSH_AFTER_FETCH)
def test_cpu_sum_across_blocks_matches_reference_loop(batches_drawn):
    """The cpu float is summed block by block; with blocks of a few
    pages every batch spans several, and the sum stays bit-identical."""
    with patch.object(compress, "_COST_BLOCK", 3):
        _run_both("xbzrle", batches_drawn)


def test_push_after_fetch_covers_every_branch():
    """The fixed non-ascending scenario reaches each path: zero pages,
    paying deltas and cache hits that fall back to the full page."""
    fast, _ = _run_both("xbzrle", PUSH_AFTER_FETCH)
    stats = fast.stats
    assert stats.pages == 34
    assert stats.zero_pages == 4
    # Versions 9 over 5 and 12 over 5 ship as deltas.
    assert stats.delta_pages == 6 + 2
    # The first batch misses the cache; versions 30 over 5 hit it but
    # ship full (25 steps of 256 bytes exceed the page).
    assert stats.full_pages == 16 + 6
    costs = CostModel()
    hits = 6 + 6 + 2
    assert stats.cpu_seconds == pytest.approx(
        stats.pages * costs.zero_scan_cost + hits * costs.xbzrle_encode_cost,
        rel=1e-12,
    )
