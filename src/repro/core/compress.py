"""Delta compression for the migration channel's page stream.

QEMU ships two cheap page encodings that this module models:

* **zero-page detection** — a page the guest never wrote compresses to a
  one-byte marker; the receiver materializes it locally;
* **XBZRLE** — the sender keeps a cache of the last version of each page
  it transferred and sends a run-length-encoded word diff against it,
  falling back to the full page when the delta would not pay off.

Pages in this simulation carry *versions*, not contents, so both
encodings are modelled on versions: version 0 is a never-written (zero)
page, and the XBZRLE delta size grows with the number of writes since
the cached copy (``xbzrle_delta_bytes`` per version step, capped at the
full page).  The wire still carries the exact page batch (a
:class:`~repro.oskern.memory.PageBatch` of vpns and versions) —
compression only changes the *accounted* bytes and CPU, which is all the
simulation observes, and the compressor computes both with array
operations over the whole batch.

The compressor is attached to a :class:`~repro.core.migd.MigrationChannel`
when the session's config asks for it; ``compression="none"`` attaches
nothing at all, keeping the default path byte-identical to the
pre-compression engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..blcr.checkpoint import PAGE_RECORD_OVERHEAD
from ..oskern import PAGE_SIZE
from ..oskern.costs import CostModel
from ..oskern.memory import PageBatch

__all__ = ["COMPRESSION_MODES", "CompressStats", "PageCompressor", "make_compressor"]

#: Accepted values for ``LiveMigrationConfig.compression``.
COMPRESSION_MODES = ("none", "zero-page", "xbzrle")

#: Serialized size of one uncompressed page record.
_FULL_PAGE = PAGE_SIZE + PAGE_RECORD_OVERHEAD


@dataclass
class CompressStats:
    """Cumulative compression accounting across a session's rounds."""

    pages: int = 0
    raw_bytes: int = 0
    wire_bytes: int = 0
    zero_pages: int = 0
    delta_pages: int = 0
    full_pages: int = 0
    cpu_seconds: float = 0.0

    @property
    def saved_bytes(self) -> int:
        return self.raw_bytes - self.wire_bytes


class PageCompressor:
    """Zero-page (and optionally XBZRLE) page-stream compressor.

    One instance lives per migration session, because the XBZRLE cache
    is exactly "the last version of each page this *session* sent".
    """

    def __init__(self, mode: str, costs: CostModel) -> None:
        if mode not in ("zero-page", "xbzrle"):
            raise ValueError(f"unknown compression mode {mode!r}")
        self.mode = mode
        self.costs = costs
        self.stats = CompressStats()
        #: The copy of each page the destination already holds, as an
        #: ascending batch; an absent page reads as version 0, which the
        #: XBZRLE test ``0 < cached < version`` treats like absence.
        self._cache = PageBatch.empty()

    def compress(self, pages: PageBatch) -> tuple[int, float]:
        """Account one page batch; returns ``(wire_bytes, cpu_cost)``.

        The batch itself still travels as-is (versions are the contents
        here); only the byte/CPU accounting shrinks.  Every page costs a
        zero scan; a non-zero page whose cached copy is older costs an
        XBZRLE encode too, and ships as the delta if that beats the full
        page.  ``cpu`` is the sequential float sum of those costs in
        batch order (``np.cumsum`` adds left to right, as a loop would;
        ``np.sum`` would add pairwise and change the low bits).
        """
        costs = self.costs
        versions = pages.versions
        n = len(versions)
        zero = int(np.count_nonzero(versions == 0))
        delta = 0
        delta_wire = 0
        hits = np.empty(0, np.int64)
        if self.mode == "xbzrle":
            cached = self._cache.versions_of(pages.vpns)
            hits = np.flatnonzero((cached > 0) & (cached < versions))
            enc = PAGE_RECORD_OVERHEAD + np.minimum(
                PAGE_SIZE, costs.xbzrle_delta_bytes * (versions[hits] - cached[hits])
            )
            del cached
            pays = enc[enc < _FULL_PAGE]
            delta = len(pays)
            delta_wire = int(pays.sum())
            del enc, pays
            self._cache = self._cache.overlay(pages, in_place=True)
        full = n - zero - delta
        wire = zero * costs.zero_page_bytes + delta_wire + full * _FULL_PAGE
        cpu = _sequential_cost(n, hits, costs.zero_scan_cost, costs.xbzrle_encode_cost)
        st = self.stats
        st.pages += n
        st.raw_bytes += n * _FULL_PAGE
        st.wire_bytes += wire
        st.zero_pages += zero
        st.delta_pages += delta
        st.full_pages += full
        st.cpu_seconds += cpu
        return wire, cpu


#: Pages per block of :func:`_sequential_cost`'s running sum.
_COST_BLOCK = 1 << 15


def _sequential_cost(n: int, hits: np.ndarray, scan: float, encode: float) -> float:
    """The left-to-right float sum of one ``scan`` step per page, with an
    ``encode`` step right after each page in the ascending ``hits``.

    The sum runs block by block, each block's ``np.cumsum`` starting
    from the previous block's total, so the additions and their order
    are those of one cumsum over the whole step sequence without
    building it (two float arrays of ``n + len(hits)`` for a full-area
    batch)."""
    total = 0.0
    bounds = np.searchsorted(hits, np.arange(0, n + _COST_BLOCK, _COST_BLOCK)).tolist()
    for k, start in enumerate(range(0, n, _COST_BLOCK)):
        npages = min(_COST_BLOCK, n - start)
        block_hits = hits[bounds[k] : bounds[k + 1]] - start
        steps = np.full(1 + npages + len(block_hits), scan)
        steps[0] = total
        steps[block_hits + np.arange(2, len(block_hits) + 2)] = encode
        total = float(np.cumsum(steps)[-1])
    return total


def make_compressor(mode: str, costs: CostModel) -> PageCompressor | None:
    """Compressor for a config value; ``None`` disables the stage
    entirely (not even accounting runs, so default traces are untouched).
    """
    if mode == "none":
        return None
    return PageCompressor(mode, costs)
